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
//!
//! **One per-node kernel.** Laws 3 and 4 are checked block by block by
//! [`MonitorShard::check`], over one block's columns ([`NodeBlock`]) and
//! that block's share of the baselines ([`MonitorShard`]). It leaves the
//! block's stale count and its violations, each list in node order, in a
//! [`BlockReport`]. A *quiet* block — all fates idle, no late acceptance,
//! staleness bit-equal to the previous tick's — provably raises nothing
//! and moves no baseline, and costs one branch-free scan; a lawful busy
//! block costs branch-free passes; only a block with a violation runs the
//! per-node loop that reports it. Every node is read on every tick.
//! The pipeline runs the kernel inside its shard pass, each shard on its
//! own chunk against its view from [`MonitorSet::shard_views`], on
//! whichever worker owns the shard, and then [`MonitorSet::finish_tick`]
//! runs laws 1 and 2, sums the shards' stale counts for law 4's
//! population count, and merges the reports in shard order.
//! [`MonitorSet::check_tick`] (the offline replay) runs the same kernel
//! over 64-node blocks of a whole tick's vitals. Either way a tick's
//! violations come in one order: filter, channel, every seq violation in
//! node order, the stale-count violation, every per-node staleness
//! violation in node order.

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
    /// Nothing transmitted (suppressed, or no observation). Discriminant
    /// 0: the monitors' quiet-block scan ORs the fates' discriminants.
    #[default]
    Idle = 0,
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

/// One block of a tick's per-node columns, as the pipeline's shard pass
/// and [`MonitorSet::check_tick`] hand it to the per-node kernel
/// ([`MonitorShard::check`]). Every non-empty slice covers the same nodes,
/// the ones of the [`MonitorShard`] it is checked against.
#[derive(Debug, Clone, Copy)]
pub struct NodeBlock<'a> {
    /// The tick the columns describe.
    pub tick: u64,
    /// Per-node apply fate.
    pub fates: &'a [NodeFate],
    /// Per-node transmitted wire sequence number, valid where `fates`
    /// records a transmission (empty = skip the seq check).
    pub wire_seqs: &'a [u32],
    /// Per-node staleness counters after the tick (empty = count nothing).
    pub staleness: &'a [u32],
    /// Per-node late-acceptance flag (empty = skip the per-node staleness
    /// check; the block's stale nodes are still counted).
    pub late_accepted: &'a [bool],
}

/// What the per-node kernel found in one block: the block's stale-node
/// count and its seq-monotonicity and staleness-consistency violations,
/// each list in node order. The pipeline keeps one per shard and reuses
/// it, so a healthy tick allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct BlockReport {
    /// Nodes with positive staleness; `None` while no checked block
    /// carried a staleness column (the stale-count law is then not
    /// checked).
    stale: Option<u32>,
    seq: Vec<Violation>,
    staleness: Vec<Violation>,
}

impl BlockReport {
    /// Empties the report for a new tick, keeping the lists' capacity.
    pub fn clear(&mut self) {
        self.stale = None;
        self.seq.clear();
        self.staleness.clear();
    }
}

/// One block's share of a [`MonitorSet`]'s per-node baselines: the next
/// expected wire seq (seq monotonicity) and the previous staleness counter
/// (staleness consistency) of each of its nodes, plus, in lazy mode, which
/// of them have a baseline yet. Views of one set cover disjoint nodes
/// ([`MonitorSet::shard_views`]), so the shards of a tick can be checked
/// on any worker.
#[derive(Debug)]
pub struct MonitorShard<'a> {
    strict: bool,
    /// Node index of the view's first node.
    base: usize,
    expected: &'a mut [u32],
    prev: &'a mut [u32],
    /// Lazy mode only (empty in strict mode): seq baselines established.
    seq_sighted: &'a mut [bool],
    /// Lazy mode only (empty in strict mode): staleness baselines
    /// established.
    stale_sighted: &'a mut [bool],
}

impl MonitorShard<'_> {
    /// The per-node kernel: checks seq monotonicity and staleness
    /// consistency over one block and moves the block's baselines on,
    /// adding the block's stale count and violations to `report`.
    ///
    /// *Quiet blocks.* A block whose fates are all idle, whose late flags
    /// are all false and whose staleness column is bit-equal to the
    /// previous tick's raises nothing and changes no baseline (in lazy
    /// mode it only marks its nodes' staleness baselines sighted): no
    /// node transmitted, so no seq is checked or moved, and every counter
    /// is the idle model's `prev`. The kernel tests for that branch-free
    /// in the pass that counts the stale nodes. Every node's columns are
    /// still read on every tick.
    ///
    /// *Other blocks.* Each law first takes a branch-free pass that tells
    /// whether any node breaks it; a lawful block then moves its
    /// baselines on in a second one, and only a block with a violation
    /// runs the per-node loop that reports each one.
    pub fn check(&mut self, b: NodeBlock<'_>, report: &mut BlockReport) {
        let per_node = !b.late_accepted.is_empty();
        let (stale, quiet) = if per_node {
            scan_block(b.fates, b.late_accepted, b.staleness, self.prev)
        } else {
            (b.staleness.iter().map(|s| u32::from(*s > 0)).sum(), false)
        };
        if !b.staleness.is_empty() {
            report.stale = Some(report.stale.unwrap_or(0) + stale);
        }
        if quiet {
            // Empty in strict mode.
            self.stale_sighted.fill(true);
        } else if self.strict {
            self.check_laws::<true>(&b, report);
        } else {
            self.check_laws::<false>(&b, report);
        }
    }

    /// The two laws over a block that is not quiet.
    fn check_laws<const STRICT: bool>(&mut self, b: &NodeBlock<'_>, report: &mut BlockReport) {
        if !b.wire_seqs.is_empty() {
            self.check_seqs::<STRICT>(b, &mut report.seq);
        }
        if !b.late_accepted.is_empty() {
            self.check_staleness::<STRICT>(b, &mut report.staleness);
        }
    }

    /// Each transmitting node's wire seq must be the one after its last.
    /// A first branch-free pass tells whether any checked node breaks the
    /// law; a lawful block (the healthy case) then moves its baselines on
    /// in a second one, and only a broken block takes the per-node loop
    /// that reports each violation. Whether a node transmitted is as
    /// unpredictable as the traffic, so a loop that branches on it per
    /// node mispredicts on a busy block.
    fn check_seqs<const STRICT: bool>(&mut self, b: &NodeBlock<'_>, out: &mut Vec<Violation>) {
        let mut broken = 0u32;
        let nodes = b.fates.iter().zip(b.wire_seqs).zip(&*self.expected);
        for (i, ((fate, &seq), &expected)) in nodes.enumerate() {
            let sighted = STRICT || self.seq_sighted[i];
            broken |= (seq ^ expected) & mask(*fate != NodeFate::Idle) & mask(sighted);
        }
        if broken == 0 {
            let nodes = b
                .fates
                .iter()
                .zip(b.wire_seqs)
                .zip(self.expected.iter_mut());
            for (i, ((fate, &seq), expected)) in nodes.enumerate() {
                let sent = *fate != NodeFate::Idle;
                *expected = (seq.wrapping_add(1) & mask(sent)) | (*expected & !mask(sent));
                if !STRICT {
                    self.seq_sighted[i] |= sent;
                }
            }
            return;
        }
        let nodes = b
            .fates
            .iter()
            .zip(b.wire_seqs)
            .zip(self.expected.iter_mut());
        for (i, ((fate, &seq), expected)) in nodes.enumerate() {
            if *fate == NodeFate::Idle {
                continue;
            }
            let sighted = STRICT || std::mem::replace(&mut self.seq_sighted[i], true);
            if sighted && seq != *expected {
                out.push(node_violation(
                    MonitorKind::SeqMonotonicity,
                    b.tick,
                    self.base + i,
                    *expected,
                    seq,
                ));
            }
            *expected = seq.wrapping_add(1);
        }
    }

    /// Each node's staleness counter must follow the loss/acceptance
    /// model: reset by an acceptance, incremented by a loss, otherwise
    /// left where it was, or where a late acceptance earlier in the tick
    /// reset it. Lawful blocks take two branch-free passes, like
    /// [`MonitorShard::check_seqs`].
    fn check_staleness<const STRICT: bool>(&mut self, b: &NodeBlock<'_>, out: &mut Vec<Violation>) {
        let mut broken = 0u32;
        let nodes = b
            .fates
            .iter()
            .zip(b.staleness)
            .zip(b.late_accepted)
            .zip(&*self.prev);
        for (i, (((fate, &actual), &late), &prev)) in nodes.enumerate() {
            let sighted = STRICT || self.stale_sighted[i];
            broken |= (actual ^ lawful_staleness(*fate, late, prev)) & mask(sighted);
        }
        if broken == 0 {
            self.prev.copy_from_slice(b.staleness);
            if !STRICT {
                self.stale_sighted.fill(true);
            }
            return;
        }
        let nodes = b.fates.iter().zip(b.staleness).zip(b.late_accepted);
        for (i, ((fate, &actual), &late)) in nodes.enumerate() {
            let sighted = STRICT || std::mem::replace(&mut self.stale_sighted[i], true);
            let expected = lawful_staleness(*fate, late, self.prev[i]);
            if sighted && actual != expected {
                out.push(node_violation(
                    MonitorKind::StalenessConsistency,
                    b.tick,
                    self.base + i,
                    expected,
                    actual,
                ));
            }
            self.prev[i] = actual;
        }
    }
}

/// The staleness counter the loss/acceptance model expects after a tick
/// with `fate`, from `prev` — or from 0 when a late acceptance earlier in
/// the tick reset it before the apply phase ran: reset by an acceptance,
/// incremented by a loss, kept otherwise. Written with masks, not a
/// `match`, so that it compiles without branches.
fn lawful_staleness(fate: NodeFate, late: bool, prev: u32) -> u32 {
    let base = prev & !mask(late);
    let lost = u32::from(fate == NodeFate::LostInFlight);
    base.saturating_add(lost) & !mask(fate == NodeFate::Accepted)
}

/// All ones when `bit` is set, else zero.
fn mask(bit: bool) -> u32 {
    0u32.wrapping_sub(u32::from(bit))
}

/// A per-node `monitor` violation at `node`.
#[cold]
fn node_violation(
    monitor: MonitorKind,
    tick: u64,
    node: usize,
    expected: u32,
    actual: u32,
) -> Violation {
    Violation {
        monitor,
        tick,
        node: Some(node as u32),
        expected: i64::from(expected),
        actual: i64::from(actual),
        detail: match monitor {
            MonitorKind::SeqMonotonicity => "wire seq must advance by one per transmission",
            _ => "staleness must follow the loss/acceptance history",
        },
    }
}

/// One branch-free scan of a block: its stale-node count, and whether the
/// block is quiet (all fates idle, no late flag, staleness bit-equal to
/// `prev`). The byte columns are folded apart from the counters, so
/// neither is widened to the other's lanes.
fn scan_block(fates: &[NodeFate], late: &[bool], staleness: &[u32], prev: &[u32]) -> (u32, bool) {
    // `NodeFate::Idle` is discriminant 0.
    let flags = fates
        .iter()
        .zip(late)
        .fold(0u8, |acc, (fate, late)| acc | *fate as u8 | u8::from(*late));
    let (mut stale, mut moved) = (0u32, 0u32);
    for (&s, &p) in staleness.iter().zip(prev) {
        stale += u32::from(s > 0);
        moved |= s ^ p;
    }
    (stale, flags == 0 && moved == 0)
}

/// Detaches the first `len` elements of `col`, leaving the rest.
fn split_front<'a, T>(col: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(col).split_at_mut(len);
    *col = tail;
    head
}

/// Drops the first `skip` elements of `col` and detaches the next `size`,
/// both clipped to the column: past its end the result is empty.
fn cut<'a, T>(col: &mut &'a mut [T], skip: usize, size: usize) -> &'a mut [T] {
    split_front(col, skip.min(col.len()));
    split_front(col, size.min(col.len()))
}

/// The baseline columns cut front to back into `size`-node views, one per
/// block; past a column's length a view's slice of it is empty. `nth`
/// skips blocks in O(1).
struct Views<'a> {
    strict: bool,
    size: usize,
    /// The first node of the next view.
    base: usize,
    /// The views left.
    blocks: usize,
    expected: &'a mut [u32],
    prev: &'a mut [u32],
    seq_sighted: &'a mut [bool],
    stale_sighted: &'a mut [bool],
}

impl<'a> Iterator for Views<'a> {
    type Item = MonitorShard<'a>;

    fn next(&mut self) -> Option<MonitorShard<'a>> {
        self.nth(0)
    }

    fn nth(&mut self, n: usize) -> Option<MonitorShard<'a>> {
        if n >= self.blocks {
            self.blocks = 0;
            return None;
        }
        self.blocks -= n + 1;
        let (skip, size) = (n * self.size, self.size);
        let base = self.base + skip;
        self.base = base + size;
        Some(MonitorShard {
            strict: self.strict,
            base,
            expected: cut(&mut self.expected, skip, size),
            prev: cut(&mut self.prev, skip, size),
            seq_sighted: cut(&mut self.seq_sighted, skip, size),
            stale_sighted: cut(&mut self.stale_sighted, skip, size),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.blocks, Some(self.blocks))
    }
}

impl ExactSizeIterator for Views<'_> {}

/// How many nodes a [`MonitorSet::check_tick`] block spans; the pipeline's
/// shards are as wide.
const BLOCK: usize = 64;

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
    /// Seq monotonicity: each node's next expected wire seq.
    expected: Vec<u32>,
    /// Lazy mode only: whether each node's seq baseline is established.
    /// Strict mode knows sequence numbers start at 0, so every node counts
    /// as sighted and the column stays empty.
    seq_sighted: Vec<bool>,
    /// Staleness consistency: each node's counter after the previous tick.
    prev: Vec<u32>,
    /// Lazy mode only: whether each node's staleness baseline is
    /// established. Strict mode knows staleness starts at 0 everywhere.
    stale_sighted: Vec<bool>,
    scratch: Vec<Violation>,
}

impl MonitorSet {
    fn new(strict: bool) -> Self {
        MonitorSet {
            strict,
            channel: ChannelConservation::default(),
            expected: Vec::new(),
            seq_sighted: Vec::new(),
            prev: Vec::new(),
            stale_sighted: Vec::new(),
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
    /// violations found this tick (empty on a healthy tick), in the order
    /// of [`MonitorSet::finish_tick`]. The returned slice is valid until
    /// the next call.
    ///
    /// The per-node columns go through the same kernel as the pipeline's
    /// shard pass ([`MonitorShard::check`]), one 64-node block at a time,
    /// so a quiet block costs one branch-free scan. A seq baseline is
    /// kept only for a tick that carries wire seqs, a staleness baseline
    /// only for one that carries fates and late flags too.
    pub fn check_tick(&mut self, v: &TickVitals<'_>) -> &[Violation] {
        let (nf, n) = (v.node_fates.len(), v.staleness.len());
        let seq_len = if nf > 0 && v.wire_seqs.len() == nf {
            nf
        } else {
            0
        };
        let stale_len = if n > 0 && nf == n && v.late_accepted.len() == n {
            n
        } else {
            0
        };
        let mut report = BlockReport::default();
        let blocks = nf.max(n).div_ceil(BLOCK);
        for (b, mut view) in self.views(seq_len, stale_len, BLOCK, blocks).enumerate() {
            let within = |len: usize| (b * BLOCK).min(len)..((b + 1) * BLOCK).min(len);
            let block = NodeBlock {
                tick: v.tick,
                fates: &v.node_fates[within(nf)],
                wire_seqs: &v.wire_seqs[within(seq_len)],
                staleness: &v.staleness[within(n)],
                late_accepted: &v.late_accepted[within(stale_len)],
            };
            view.check(block, &mut report);
        }
        self.finish_tick(v, std::slice::from_ref(&report))
    }

    /// Per-shard views of the baselines of a `nodes`-node population, in
    /// `size`-node shards: the pipeline's shard pass checks each shard's
    /// columns against its view ([`MonitorShard::check`]) and hands the
    /// shards' reports to [`MonitorSet::finish_tick`]. `nth` skips views
    /// in O(1), so a caller that checks a few chosen shards pays only for
    /// those.
    pub fn shard_views(
        &mut self,
        nodes: usize,
        size: usize,
    ) -> impl ExactSizeIterator<Item = MonitorShard<'_>> {
        self.views(nodes, nodes, size, nodes.div_ceil(size))
    }

    /// `blocks` views of `size` nodes each over the first `seq_len` seq
    /// baselines and the first `stale_len` staleness baselines, growing
    /// either column to its length first; past a column's length a view's
    /// slice of it is empty.
    fn views(&mut self, seq_len: usize, stale_len: usize, size: usize, blocks: usize) -> Views<'_> {
        let strict = self.strict;
        let lazy = move |len: usize| if strict { 0 } else { len };
        if self.expected.len() < seq_len {
            self.expected.resize(seq_len, 0);
            self.seq_sighted.resize(lazy(seq_len), false);
        }
        if self.prev.len() < stale_len {
            self.prev.resize(stale_len, 0);
            self.stale_sighted.resize(lazy(stale_len), false);
        }
        Views {
            strict,
            size,
            base: 0,
            blocks,
            expected: &mut self.expected[..seq_len],
            prev: &mut self.prev[..stale_len],
            seq_sighted: &mut self.seq_sighted[..lazy(seq_len)],
            stale_sighted: &mut self.stale_sighted[..lazy(stale_len)],
        }
    }

    /// Finishes a tick whose per-node columns the kernel has checked
    /// block by block: runs the scalar laws over `vitals`' aggregates
    /// (its per-node slices are not read) and merges the `blocks`'
    /// reports, given in node order. Returns the tick's violations in
    /// monitor order: filter conservation, channel conservation, every
    /// block's seq-monotonicity violations, the population stale-count
    /// violation (the blocks' stale counts summed against
    /// `vitals.stale_nodes`), then every block's per-node staleness
    /// violations. The returned slice is valid until the next call.
    ///
    /// One pass over the reports when none holds a violation (the healthy
    /// tick), three otherwise.
    pub fn finish_tick(&mut self, v: &TickVitals<'_>, blocks: &[BlockReport]) -> &[Violation] {
        let (mut stale, mut per_node) = (None, false);
        for block in blocks {
            if let Some(count) = block.stale {
                stale = Some(stale.unwrap_or(0) + count);
            }
            per_node |= !block.seq.is_empty() | !block.staleness.is_empty();
        }
        self.scratch.clear();
        check_filter_conservation(v, &mut self.scratch);
        self.channel.check_tick(v, &mut self.scratch);
        if per_node {
            for block in blocks {
                self.scratch.extend_from_slice(&block.seq);
            }
        }
        if let Some(stale) = stale.filter(|s| *s != v.stale_nodes) {
            self.scratch.push(Violation {
                monitor: MonitorKind::StalenessConsistency,
                tick: v.tick,
                node: None,
                expected: i64::from(stale),
                actual: i64::from(v.stale_nodes),
                detail: "stale_nodes must count the nodes with positive staleness",
            });
        }
        if per_node {
            for block in blocks {
                self.scratch.extend_from_slice(&block.staleness);
            }
        }
        &self.scratch
    }
}

/// The per-node monitors as plain loops — two passes for staleness, a
/// `sighted` column in either mode — kept as the oracle the block
/// kernel is tested against.
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

    /// Runs `ticks` of idle nodes through a strict set in 64-node blocks,
    /// after one tick on which node 70 lost its frame (staleness 1), and
    /// returns the last tick's violations.
    fn idle_blocks_after_a_loss(last_staleness: u32, last_late: bool) -> Vec<Violation> {
        let n = 130;
        let mut set = MonitorSet::standard();
        let mut fates = vec![NodeFate::Idle; n];
        let mut staleness = vec![0u32; n];
        let mut late = vec![false; n];
        fates[70] = NodeFate::LostInFlight;
        staleness[70] = 1;
        let wire_seqs = [0; 130];
        let first = TickVitals {
            stale_nodes: 1,
            node_fates: &fates,
            wire_seqs: &wire_seqs,
            staleness: &staleness,
            late_accepted: &late,
            ..TickVitals::default()
        };
        assert!(set.check_tick(&first).is_empty());
        // The next tick every node is idle: node 70's block is quiet
        // unless its counter moved or a late frame reset it.
        fates[70] = NodeFate::Idle;
        staleness[70] = last_staleness;
        late[70] = last_late;
        let next = TickVitals {
            tick: 1,
            stale_nodes: u32::from(last_staleness > 0),
            node_fates: &fates,
            wire_seqs: &wire_seqs,
            staleness: &staleness,
            late_accepted: &late,
            ..TickVitals::default()
        };
        set.check_tick(&next).to_vec()
    }

    #[test]
    fn idle_blocks_still_check_late_resets_and_moved_counters() {
        // Unchanged counter, no late frame: the block is quiet and clean.
        assert!(idle_blocks_after_a_loss(1, false).is_empty());
        // A late acceptance reset the counter, yet it still reads 1.
        let late = idle_blocks_after_a_loss(1, true);
        assert_eq!(late.len(), 1, "{late:?}");
        assert_eq!(
            (late[0].node, late[0].expected, late[0].actual),
            (Some(70), 0, 1)
        );
        // An idle node's counter jumped.
        let jump = idle_blocks_after_a_loss(4, false);
        assert_eq!(jump.len(), 1, "{jump:?}");
        assert_eq!(
            (jump[0].node, jump[0].expected, jump[0].actual),
            (Some(70), 1, 4)
        );
        // A late reset to zero is lawful, and moves the baseline.
        assert!(idle_blocks_after_a_loss(0, true).is_empty());
    }

    /// The model a generated tick sequence is driven by: per node, the
    /// next wire seq and the staleness counter the broker would hold.
    struct Model {
        seq: Vec<u32>,
        staleness: Vec<u32>,
    }

    /// One generated tick: its per-node columns.
    type Columns = (Vec<NodeFate>, Vec<u32>, Vec<u32>, Vec<bool>);

    /// A set checked through per-shard views in `size`-node shards and
    /// the shard-order merge, as the pipeline's shard pass does it. The
    /// views are taken out of order, as the sparse tick takes its memo
    /// hits and its evaluated shards: blocks 1, 4, 7, … through one
    /// iterator whose `nth` skips the two between, then every other block
    /// from a fresh iterator.
    fn check_split(set: &mut MonitorSet, v: &TickVitals<'_>, size: usize) -> Vec<Violation> {
        let n = v.node_fates.len();
        let mut reports = vec![BlockReport::default(); n.div_ceil(size)];
        let mut check = |b: usize, mut view: MonitorShard<'_>| {
            let nodes = b * size..((b + 1) * size).min(n);
            view.check(
                NodeBlock {
                    tick: v.tick,
                    fates: &v.node_fates[nodes.clone()],
                    wire_seqs: &v.wire_seqs[nodes.clone()],
                    staleness: &v.staleness[nodes.clone()],
                    late_accepted: &v.late_accepted[nodes],
                },
                &mut reports[b],
            );
        };
        {
            let mut views = set.shard_views(n, size);
            let mut b = 1;
            while let Some(view) = views.nth(if b == 1 { 1 } else { 2 }) {
                check(b, view);
                b += 3;
            }
        }
        for b in (0..n.div_ceil(size)).filter(|b| b % 3 != 1) {
            check(
                b,
                set.shard_views(n, size).nth(b).expect("a view per block"),
            );
        }
        set.finish_tick(v, &reports).to_vec()
    }

    proptest::proptest! {
        /// The block kernel, strict and lazy, reports exactly what the
        /// plain reference loops report, in the same order, and keeps the
        /// same baselines, over random vitals spanning several 64-node
        /// blocks (quiet ones included) with injected seq gaps, staleness
        /// jumps and freezes, late resets and a wrong `stale_nodes`; both
        /// through `check_tick` and through per-shard views merged in
        /// shard order.
        #[test]
        fn one_pass_monitors_match_the_reference_loops(
            n in 1usize..200,
            ticks in proptest::collection::vec(
                (
                    proptest::collection::vec((0u8..8, 0u8..16, 0u8..16, proptest::prelude::any::<bool>()), 200),
                    proptest::collection::vec((0u8..4, 0u8..64), 4),
                    0u8..8,
                    0u8..8,
                ),
                1..16,
            ),
            start in 0u32..1000,
            split in 0usize..130,
        ) {
            // Half the cases split at the pipeline's shard width.
            let size = if split < 65 { 64 } else { split - 64 };
            for strict in [true, false] {
                let mut set = MonitorSet::new(strict);
                let mut split_set = MonitorSet::new(strict);
                let mut seq_ref = reference::SeqMonotonicity::new(strict);
                let mut stale_ref = reference::StalenessConsistency::new(strict);
                let mut split_seq_ref = reference::SeqMonotonicity::new(strict);
                let mut split_stale_ref = reference::StalenessConsistency::new(strict);
                // A lazy replay may join mid-stream: start from arbitrary
                // baselines.
                let base = if strict { 0 } else { start };
                let mut model = Model { seq: vec![base; n], staleness: vec![0; n] };
                // Each tick: per node `(fate, seq glitch, staleness jump,
                // late reset)` selectors, per 64-node block a `(mode,
                // node)` selector, an error in `stale_nodes`, and which
                // per-node slices the vitals carry.
                for (tick, (nodes, blocks, stale_error, slices)) in ticks.iter().enumerate() {
                    let (fates, wire_seqs, staleness, late) = generate(&mut model, &nodes[..n], blocks);
                    let true_stale = staleness.iter().filter(|s| **s > 0).count() as u32;
                    let stale_nodes = true_stale + u32::from(*stale_error == 0);
                    // Mostly full vitals; sometimes no wire seqs, or no
                    // per-node staleness inputs.
                    let empty_seqs: &[u32] = &[];
                    let empty_late: &[bool] = &[];
                    let full = TickVitals {
                        tick: tick as u64,
                        stale_nodes,
                        node_fates: &fates,
                        wire_seqs: &wire_seqs,
                        staleness: &staleness,
                        late_accepted: &late,
                        ..TickVitals::default()
                    };
                    let v = TickVitals {
                        wire_seqs: if *slices == 0 { empty_seqs } else { &wire_seqs },
                        late_accepted: if *slices == 1 { empty_late } else { &late },
                        ..full
                    };
                    let mut expected = Vec::new();
                    seq_ref.check_tick(&v, &mut expected);
                    stale_ref.check_tick(&v, &mut expected);
                    proptest::prop_assert_eq!(set.check_tick(&v), &expected[..]);
                    proptest::prop_assert_eq!(&set.expected, &seq_ref.expected);
                    proptest::prop_assert_eq!(&set.prev, &stale_ref.prev);
                    // The pipeline's split always carries every column.
                    let mut expected = Vec::new();
                    split_seq_ref.check_tick(&full, &mut expected);
                    split_stale_ref.check_tick(&full, &mut expected);
                    proptest::prop_assert_eq!(check_split(&mut split_set, &full, size), expected);
                    proptest::prop_assert_eq!(&split_set.expected, &split_seq_ref.expected);
                    proptest::prop_assert_eq!(&split_set.prev, &split_stale_ref.prev);
                    if strict {
                        for s in [&set, &split_set] {
                            proptest::prop_assert!(s.seq_sighted.is_empty());
                            proptest::prop_assert!(s.stale_sighted.is_empty());
                        }
                        for r in [&seq_ref.sighted, &stale_ref.sighted, &split_seq_ref.sighted, &split_stale_ref.sighted] {
                            proptest::prop_assert!(r.iter().all(|s| *s));
                        }
                    } else {
                        proptest::prop_assert_eq!(&set.seq_sighted, &seq_ref.sighted);
                        proptest::prop_assert_eq!(&set.stale_sighted, &stale_ref.sighted);
                        proptest::prop_assert_eq!(&split_set.seq_sighted, &split_seq_ref.sighted);
                        proptest::prop_assert_eq!(&split_set.stale_sighted, &split_stale_ref.sighted);
                    }
                }
            }
        }
    }

    /// Advances `model` by one tick of `nodes` selectors: mostly lawful
    /// fates, seqs and staleness, with the occasional seq gap, staleness
    /// jump or freeze and late reset. Each 64-node block's `(mode, node)`
    /// selector leaves it free (modes 0 and 1), makes it quiet (mode 2:
    /// every node idle, no late reset, counters unchanged) or quiet but
    /// for one idle node that keeps its own selectors (mode 3). Returns
    /// the tick's per-node columns.
    fn generate(model: &mut Model, nodes: &[(u8, u8, u8, bool)], blocks: &[(u8, u8)]) -> Columns {
        let mut columns = Columns::default();
        for (i, &(fate, glitch, jump, late)) in nodes.iter().enumerate() {
            let (mode, astray) = blocks[i / 64];
            let quiet = match mode {
                2 => true,
                3 => i % 64 != usize::from(astray),
                _ => false,
            };
            let fate = match fate {
                _ if mode >= 2 => NodeFate::Idle,
                0..=3 => NodeFate::Idle,
                4 | 5 => NodeFate::Accepted,
                6 => NodeFate::LostInFlight,
                _ => NodeFate::NoCoverage,
            };
            // A late reset lands on a fifth of the nodes.
            let late = !quiet && late && glitch % 5 == 0;
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
            if !quiet && jump == 0 {
                staleness += u32::from(glitch) + 1;
            } else if !quiet && jump == 1 && glitch < 8 {
                // A frozen counter: the tick's loss or late reset is lost.
                staleness = model.staleness[i];
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
