//! Offline flight-recorder analysis: reconstruct per-LU causal chains
//! from a JSONL telemetry export and replay the invariant monitors.
//!
//! A recorded run (`--telemetry FILE.jsonl` on any experiment binary)
//! exports every location update's lifecycle as linked events sharing the
//! stable identity `(node, seq)`, where `seq` is the generation tick:
//! `lu_generated → lu_classified → lu_decision → lu_channel* → lu_apply →
//! lu_error`. This module parses that export back (with the telemetry
//! crate's own dependency-free JSON parser), groups the events into
//! [`Chain`]s, and answers the questions a paper reader asks of a run:
//!
//! - the default **summary** (segments, chains, completeness, totals),
//! - `--node N` — one node's tick-by-tick timeline,
//! - `--latency` — delivery-latency distribution, retries included,
//! - `--suppression` — longest suppression runs per velocity cluster,
//! - `--staleness` — staleness episodes (onset, depth, length),
//! - `--check` — replay the [`MonitorSet`] invariant battery offline and
//!   exit non-zero on any violation.
//!
//! A campaign export concatenates several runs' events (the recorder is
//! forked per arm and absorbed in arm order), so the event stream is
//! split into **segments** wherever the tick regresses; every query works
//! per segment. When the recorder's event ring dropped its oldest events
//! (`events_dropped` in the meta line), the first retained tick of the
//! first segment may be partial and is excluded from conservation checks.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mobigrid_telemetry::json::{self, Value};
use mobigrid_telemetry::{
    ApplyOutcome, EventKind, LinkFate, MobilityClass, MonitorKind, MonitorSet, NodeFate,
    TickVitals, Violation,
};

/// One decoded event, stamped with the tick it was recorded on.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Logical tick of the recording clock.
    pub tick: u64,
    /// The decoded payload.
    pub kind: EventKind,
}

/// A parsed JSONL telemetry export.
#[derive(Debug, Default)]
pub struct Trace {
    /// Events the recorder's bounded ring dropped before export (from the
    /// meta line). When positive, the stream's head is truncated.
    pub events_dropped: u64,
    /// Counter totals by name (whole-run sums, not per tick).
    pub counters: BTreeMap<String, u64>,
    /// Every decoded event, in export (= recording) order.
    pub events: Vec<TraceEvent>,
}

fn field<'a>(obj: &'a Value, key: &str, line: usize) -> Result<&'a Value, String> {
    obj.get(key)
        .ok_or_else(|| format!("line {line}: missing field {key:?}"))
}

fn num(obj: &Value, key: &str, line: usize) -> Result<f64, String> {
    let v = field(obj, key, line)?;
    match v {
        Value::Null => Ok(f64::NAN),
        _ => v
            .as_f64()
            .ok_or_else(|| format!("line {line}: field {key:?} is not a number")),
    }
}

fn uint(obj: &Value, key: &str, line: usize) -> Result<u64, String> {
    field(obj, key, line)?
        .as_u64()
        .ok_or_else(|| format!("line {line}: field {key:?} is not an unsigned integer"))
}

fn int(obj: &Value, key: &str, line: usize) -> Result<i64, String> {
    field(obj, key, line)?
        .as_i64()
        .ok_or_else(|| format!("line {line}: field {key:?} is not an integer"))
}

fn text<'a>(obj: &'a Value, key: &str, line: usize) -> Result<&'a str, String> {
    field(obj, key, line)?
        .as_str()
        .ok_or_else(|| format!("line {line}: field {key:?} is not a string"))
}

fn boolean(obj: &Value, key: &str, line: usize) -> Result<bool, String> {
    field(obj, key, line)?
        .as_bool()
        .ok_or_else(|| format!("line {line}: field {key:?} is not a boolean"))
}

fn u32_of(obj: &Value, key: &str, line: usize) -> Result<u32, String> {
    let v = uint(obj, key, line)?;
    u32::try_from(v).map_err(|_| format!("line {line}: field {key:?} overflows u32"))
}

/// The LU's generation seq. Event lines carry two `"seq"` members — the
/// recorder's stamp first, then the LU identity inside the kind body —
/// and the parser keeps members in document order, so take the last one.
fn lu_seq(obj: &Value, line: usize) -> Result<u32, String> {
    let Value::Obj(members) = obj else {
        return Err(format!("line {line}: event is not an object"));
    };
    let v = members
        .iter()
        .rev()
        .find(|(k, _)| k == "seq")
        .map(|(_, v)| v)
        .ok_or_else(|| format!("line {line}: missing field \"seq\""))?;
    let v = v
        .as_u64()
        .ok_or_else(|| format!("line {line}: field \"seq\" is not an unsigned integer"))?;
    u32::try_from(v).map_err(|_| format!("line {line}: field \"seq\" overflows u32"))
}

fn decode_event(obj: &Value, line: usize) -> Result<TraceEvent, String> {
    let tick = uint(obj, "tick", line)?;
    let kind = match text(obj, "kind", line)? {
        "lu_generated" => EventKind::LuGenerated {
            node: u32_of(obj, "node", line)?,
            seq: lu_seq(obj, line)?,
            x: num(obj, "x", line)?,
            y: num(obj, "y", line)?,
        },
        "lu_classified" => EventKind::LuClassified {
            node: u32_of(obj, "node", line)?,
            seq: lu_seq(obj, line)?,
            class: MobilityClass::from_name(text(obj, "class", line)?)
                .ok_or_else(|| format!("line {line}: unknown mobility class"))?,
            cluster: int(obj, "cluster", line)?
                .try_into()
                .map_err(|_| format!("line {line}: cluster overflows i32"))?,
            dth: num(obj, "dth", line)?,
        },
        "lu_decision" => EventKind::LuDecision {
            node: u32_of(obj, "node", line)?,
            seq: lu_seq(obj, line)?,
            sent: boolean(obj, "sent", line)?,
            displacement: num(obj, "displacement", line)?,
            dth: num(obj, "dth", line)?,
        },
        "lu_channel" => EventKind::LuChannel {
            node: u32_of(obj, "node", line)?,
            seq: lu_seq(obj, line)?,
            wire_seq: u32_of(obj, "wire_seq", line)?,
            attempt: u32_of(obj, "attempt", line)?,
            fate: LinkFate::from_name(text(obj, "fate", line)?)
                .ok_or_else(|| format!("line {line}: unknown link fate"))?,
            due_tick: uint(obj, "due_tick", line)?,
        },
        "lu_apply" => EventKind::LuApply {
            node: u32_of(obj, "node", line)?,
            seq: lu_seq(obj, line)?,
            outcome: ApplyOutcome::from_name(text(obj, "outcome", line)?)
                .ok_or_else(|| format!("line {line}: unknown apply outcome"))?,
            staleness: u32_of(obj, "staleness", line)?,
            blend: num(obj, "blend", line)?,
        },
        "lu_error" => EventKind::LuError {
            node: u32_of(obj, "node", line)?,
            seq: lu_seq(obj, line)?,
            err_le: num(obj, "err_le", line)?,
            err_raw: num(obj, "err_raw", line)?,
        },
        "invariant_violation" => EventKind::InvariantViolation {
            monitor: MonitorKind::from_name(text(obj, "monitor", line)?)
                .ok_or_else(|| format!("line {line}: unknown monitor"))?,
            node: u32_of(obj, "node", line)?,
            expected: int(obj, "expected", line)?,
            actual: int(obj, "actual", line)?,
        },
        "staleness" => EventKind::StalenessTransition {
            stale_nodes: u32_of(obj, "stale_nodes", line)?,
            previous: u32_of(obj, "previous", line)?,
        },
        "ingest_batch" => EventKind::IngestBatch {
            batch_tick: uint(obj, "batch_tick", line)?,
            batch_seq: uint(obj, "batch_seq", line)?,
            records: u32_of(obj, "records", line)?,
            wire_us: num(obj, "wire_us", line)?,
            apply_us: num(obj, "apply_us", line)?,
        },
        other => return Err(format!("line {line}: unknown event kind {other:?}")),
    };
    Ok(TraceEvent { tick, kind })
}

/// Parses a JSONL telemetry export.
///
/// # Errors
///
/// Returns `"line N: …"` messages for invalid JSON, missing fields and
/// unknown event kinds, so a corrupt export points at its own defect.
pub fn parse_trace(input: &str) -> Result<Trace, String> {
    let mut trace = Trace::default();
    for (i, raw) in input.lines().enumerate() {
        let line = i + 1;
        let raw = raw.trim_end_matches('\r');
        if raw.is_empty() {
            continue;
        }
        let obj = json::parse(raw).map_err(|e| format!("line {line}: {e}"))?;
        match text(&obj, "type", line)? {
            "meta" => trace.events_dropped = uint(&obj, "events_dropped", line)?,
            "counter" => {
                let name = text(&obj, "name", line)?.to_string();
                trace.counters.insert(name, uint(&obj, "value", line)?);
            }
            "event" => trace.events.push(decode_event(&obj, line)?),
            // Gauges, histograms and spans are summaries the flight
            // recorder does not need.
            "gauge" | "histogram" | "span" => {}
            other => return Err(format!("line {line}: unknown line type {other:?}")),
        }
    }
    Ok(trace)
}

impl Trace {
    /// Splits the event stream into contiguous single-run segments: a
    /// campaign export concatenates arms, so a tick regression marks the
    /// start of the next run.
    #[must_use]
    pub fn segments(&self) -> Vec<&[TraceEvent]> {
        let mut out = Vec::new();
        let mut start = 0;
        for i in 1..self.events.len() {
            if self.events[i].tick < self.events[i - 1].tick {
                out.push(&self.events[start..i]);
                start = i;
            }
        }
        if start < self.events.len() {
            out.push(&self.events[start..]);
        }
        out
    }
}

/// One location update's reconstructed lifecycle: everything recorded for
/// one `(node, generation tick)` identity.
#[derive(Debug, Clone, Default)]
pub struct Chain {
    /// Ground-truth position, when the generation event was retained.
    pub generated: Option<(f64, f64)>,
    /// `(class, cluster, dth)` from the policy's classification.
    pub classified: Option<(MobilityClass, i32, f64)>,
    /// `(sent, displacement, dth)` from the filter decision.
    pub decision: Option<(bool, f64, f64)>,
    /// Channel fates in delivery order: `(event tick, wire_seq, attempt,
    /// fate)`. Deferred frames contribute a second entry when they arrive.
    pub channel: Vec<(u64, u32, u32, LinkFate)>,
    /// Broker applies: `(event tick, outcome, staleness, blend)`.
    pub applies: Vec<(u64, ApplyOutcome, u32, f64)>,
    /// Both brokers' error sample `(err_le, err_raw)`.
    pub error: Option<(f64, f64)>,
}

impl Chain {
    /// True when the lifecycle is fully linked: generated, decided,
    /// applied and measured — plus a channel fate when the update was
    /// transmitted over a network.
    #[must_use]
    pub fn is_complete(&self, network: bool) -> bool {
        let sent = self.decision.is_some_and(|(s, _, _)| s);
        self.generated.is_some()
            && self.decision.is_some()
            && !self.applies.is_empty()
            && self.error.is_some()
            && (!network || !sent || !self.channel.is_empty())
    }
}

/// Reconstructs every causal chain in `events`, keyed by
/// `(node, generation tick)`.
#[must_use]
pub fn chains(events: &[TraceEvent]) -> BTreeMap<(u32, u32), Chain> {
    let mut out: BTreeMap<(u32, u32), Chain> = BTreeMap::new();
    for e in events {
        match e.kind {
            EventKind::LuGenerated { node, seq, x, y } => {
                out.entry((node, seq)).or_default().generated = Some((x, y));
            }
            EventKind::LuClassified {
                node,
                seq,
                class,
                cluster,
                dth,
            } => {
                out.entry((node, seq)).or_default().classified = Some((class, cluster, dth));
            }
            EventKind::LuDecision {
                node,
                seq,
                sent,
                displacement,
                dth,
            } => {
                out.entry((node, seq)).or_default().decision = Some((sent, displacement, dth));
            }
            EventKind::LuChannel {
                node,
                seq,
                wire_seq,
                attempt,
                fate,
                ..
            } => {
                out.entry((node, seq))
                    .or_default()
                    .channel
                    .push((e.tick, wire_seq, attempt, fate));
            }
            EventKind::LuApply {
                node,
                seq,
                outcome,
                staleness,
                blend,
            } => {
                out.entry((node, seq))
                    .or_default()
                    .applies
                    .push((e.tick, outcome, staleness, blend));
            }
            EventKind::LuError {
                node,
                seq,
                err_le,
                err_raw,
            } => {
                out.entry((node, seq)).or_default().error = Some((err_le, err_raw));
            }
            EventKind::InvariantViolation { .. }
            | EventKind::StalenessTransition { .. }
            | EventKind::IngestBatch { .. } => {}
        }
    }
    out
}

fn has_channel_events(events: &[TraceEvent]) -> bool {
    events
        .iter()
        .any(|e| matches!(e.kind, EventKind::LuChannel { .. }))
}

/// The events of one recorded tick each, in order.
fn ticks_of(seg: &[TraceEvent]) -> impl Iterator<Item = &[TraceEvent]> {
    seg.chunk_by(|a, b| a.tick == b.tick)
}

/// The node an LU lifecycle event names.
fn lu_node(kind: &EventKind) -> Option<u32> {
    match *kind {
        EventKind::LuGenerated { node, .. }
        | EventKind::LuClassified { node, .. }
        | EventKind::LuDecision { node, .. }
        | EventKind::LuChannel { node, .. }
        | EventKind::LuApply { node, .. }
        | EventKind::LuError { node, .. } => Some(node),
        _ => None,
    }
}

/// A segment's node population: the most `lu_generated` events one tick
/// holds, since every node generates one update per tick and ids are
/// dense. A server export generates none, so it has no per-node state.
/// `truncated` marks a partial head tick (ring truncation), whose ids are
/// not checked: the population may undercount it.
///
/// # Errors
///
/// An LU event naming a node outside `0..population`.
fn population(seg: &[TraceEvent], truncated: bool) -> Result<usize, String> {
    let generated = |t: &[TraceEvent]| {
        t.iter()
            .filter(|e| matches!(e.kind, EventKind::LuGenerated { .. }))
            .count()
    };
    let nodes = ticks_of(seg).map(generated).max().unwrap_or(0);
    let mut ids = ticks_of(seg)
        .skip(usize::from(truncated))
        .flatten()
        .filter_map(|e| lu_node(&e.kind).map(|node| (e.tick, node)));
    match ids.find(|&(_, node)| node as usize >= nodes) {
        Some((tick, node)) if nodes > 0 => Err(format!(
            "tick {tick}: node {node} is outside the segment's {nodes}-node population"
        )),
        _ => Ok(nodes),
    }
}

/// The default report: segments, chain completeness and stream totals.
///
/// # Errors
///
/// An LU event naming a node outside its segment's population.
pub fn summary(trace: &Trace) -> Result<String, String> {
    let mut out = String::new();
    let segments = trace.segments();
    let _ = writeln!(
        out,
        "trace: {} events in {} segment(s), {} dropped at the head",
        trace.events.len(),
        segments.len(),
        trace.events_dropped,
    );
    let mut stream_violations = 0u64;
    for (si, seg) in segments.iter().enumerate() {
        let network = has_channel_events(seg);
        let nodes = population(seg, si == 0 && trace.events_dropped > 0)?;
        let first = seg.first().map_or(0, |e| e.tick);
        let last = seg.last().map_or(0, |e| e.tick);
        let all = chains(seg);
        let complete = all.values().filter(|c| c.is_complete(network)).count();
        let mut nodes_with_complete = vec![false; nodes];
        for ((node, _), chain) in &all {
            if chain.is_complete(network) {
                if let Some(slot) = nodes_with_complete.get_mut(*node as usize) {
                    *slot = true;
                }
            }
        }
        let covered = nodes_with_complete.iter().filter(|b| **b).count();
        let mut delivered = 0u64;
        let mut lost = 0u64;
        let mut late = 0u64;
        let mut retries = 0u64;
        for e in seg.iter() {
            match e.kind {
                EventKind::LuChannel { attempt, fate, .. } => {
                    retries += u64::from(attempt > 0);
                    match fate {
                        LinkFate::Delivered | LinkFate::DeliveredDuplicate => delivered += 1,
                        LinkFate::Deferred
                        | LinkFate::DroppedFault
                        | LinkFate::DroppedCorrupted => {
                            lost += 1;
                        }
                        LinkFate::ArrivedLate => late += 1,
                        LinkFate::DroppedNoCoverage => {}
                    }
                }
                EventKind::InvariantViolation { .. } => stream_violations += 1,
                _ => {}
            }
        }
        let _ = writeln!(
            out,
            "segment {}: ticks {first}..={last}, {}, {nodes} nodes",
            si + 1,
            if network { "network" } else { "no network" },
        );
        let _ = writeln!(
            out,
            "  chains: {} total, {complete} complete; nodes with a complete chain: {covered}/{nodes}",
            all.len(),
        );
        if network {
            let _ = writeln!(
                out,
                "  channel: {delivered} delivered, {lost} lost, {late} arrived late, {retries} retries"
            );
        }
    }
    let _ = writeln!(out, "invariant violations in stream: {stream_violations}");
    Ok(out)
}

/// One node's tick-by-tick timeline across every segment.
#[must_use]
pub fn node_timeline(trace: &Trace, node: u32) -> String {
    let mut out = String::new();
    for (si, seg) in trace.segments().iter().enumerate() {
        let network = has_channel_events(seg);
        let all = chains(seg);
        let _ = writeln!(out, "segment {}:", si + 1);
        for ((_, seq), chain) in all.iter().filter(|((n, _), _)| *n == node) {
            let _ = write!(out, "  tick {seq}:");
            if let Some((x, y)) = chain.generated {
                let _ = write!(out, " at ({x:.2}, {y:.2})");
            }
            if let Some((class, cluster, dth)) = chain.classified {
                let _ = write!(
                    out,
                    " class={} cluster={cluster} dth={dth:.2}",
                    class.name()
                );
            }
            if let Some((sent, displacement, dth)) = chain.decision {
                let verb = if sent { "sent" } else { "suppressed" };
                let _ = write!(out, " {verb} (moved {displacement:.2} vs dth {dth:.2})");
            }
            for (tick, wire_seq, attempt, fate) in &chain.channel {
                let _ = write!(
                    out,
                    " [{} wire_seq={wire_seq} attempt={attempt}",
                    fate.name()
                );
                if *tick != u64::from(*seq) {
                    let _ = write!(out, " at tick {tick}");
                }
                out.push(']');
            }
            for (tick, outcome, staleness, blend) in &chain.applies {
                let _ = write!(
                    out,
                    " {}(staleness={staleness}, blend={blend:.3})",
                    outcome.name()
                );
                if *tick != u64::from(*seq) {
                    let _ = write!(out, "@{tick}");
                }
            }
            if let Some((le, raw)) = chain.error {
                let _ = write!(out, " err_le={le:.3} err_raw={raw:.3}");
            }
            if !chain.is_complete(network) {
                let _ = write!(out, " (incomplete)");
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "  chains for node {node}: {}",
            all.keys().filter(|(n2, _)| *n2 == node).count()
        );
    }
    out
}

/// Delivery-latency distribution: ticks between an update's generation
/// and its arrival at the broker, including deferred frames and counting
/// retransmitted attempts separately.
#[must_use]
pub fn latency_report(trace: &Trace) -> String {
    let mut dist: BTreeMap<u64, u64> = BTreeMap::new();
    let mut retries = 0u64;
    let mut never = 0u64;
    for seg in trace.segments() {
        for ((_, seq), chain) in chains(seg) {
            let mut arrived = false;
            for (tick, _, attempt, fate) in &chain.channel {
                match fate {
                    LinkFate::Delivered | LinkFate::DeliveredDuplicate | LinkFate::ArrivedLate => {
                        let latency = tick.saturating_sub(u64::from(seq));
                        *dist.entry(latency).or_default() += 1;
                        retries += u64::from(*attempt > 0);
                        arrived = true;
                    }
                    _ => {}
                }
            }
            if !arrived && !chain.channel.is_empty() {
                never += 1;
            }
        }
    }
    let mut out = String::from("delivery latency (ticks from generation to broker):\n");
    let total: u64 = dist.values().sum();
    for (latency, count) in &dist {
        let _ = writeln!(
            out,
            "  {latency:>4} ticks: {count} ({:.1}%)",
            100.0 * *count as f64 / total.max(1) as f64
        );
    }
    let _ = writeln!(
        out,
        "arrived: {total} ({retries} after a retry), never arrived: {never}"
    );
    out
}

/// Longest suppression runs (consecutive suppressed decisions) per
/// velocity cluster, the quantity the adaptive DTH trades error for.
#[must_use]
pub fn suppression_report(trace: &Trace) -> String {
    // cluster → (longest run, node achieving it).
    let mut best: BTreeMap<i32, (u64, u32)> = BTreeMap::new();
    for seg in trace.segments() {
        // node → (current run, cluster at run start).
        let mut current: BTreeMap<u32, (u64, i32)> = BTreeMap::new();
        let mut latest_cluster: BTreeMap<u32, i32> = BTreeMap::new();
        for e in seg.iter() {
            match e.kind {
                EventKind::LuClassified { node, cluster, .. } => {
                    latest_cluster.insert(node, cluster);
                }
                EventKind::LuDecision { node, sent, .. } => {
                    if sent {
                        if let Some((run, cluster)) = current.remove(&node) {
                            let slot = best.entry(cluster).or_default();
                            if run > slot.0 {
                                *slot = (run, node);
                            }
                        }
                    } else {
                        let cluster = latest_cluster.get(&node).copied().unwrap_or(-1);
                        let entry = current.entry(node).or_insert((0, cluster));
                        entry.0 += 1;
                    }
                }
                _ => {}
            }
        }
        for (node, (run, cluster)) in current {
            let slot = best.entry(cluster).or_default();
            if run > slot.0 {
                *slot = (run, node);
            }
        }
    }
    let mut out = String::from("longest suppression runs per cluster:\n");
    for (cluster, (run, node)) in &best {
        let label = if *cluster < 0 {
            "unclustered".to_string()
        } else {
            format!("cluster {cluster}")
        };
        let _ = writeln!(out, "  {label}: {run} consecutive ticks (node {node})");
    }
    if best.is_empty() {
        out.push_str("  (no suppressed decisions in the trace)\n");
    }
    out
}

/// Staleness episodes: maximal runs of ticks a node spends with a
/// positive staleness counter (consecutive losses the estimator bridges).
#[must_use]
pub fn staleness_report(trace: &Trace) -> String {
    let mut episodes = 0u64;
    let mut longest: (u64, u32) = (0, 0);
    let mut deepest: (u32, u32) = (0, 0);
    for seg in trace.segments() {
        // node → current episode length.
        let mut current: BTreeMap<u32, u64> = BTreeMap::new();
        for e in seg.iter() {
            if let EventKind::LuApply {
                node,
                seq,
                staleness,
                ..
            } = e.kind
            {
                // Shard applies (seq == tick) sample every node once per
                // tick; late applies are mid-tick transients.
                if u64::from(seq) != e.tick {
                    continue;
                }
                if staleness > 0 {
                    let run = current.entry(node).or_insert(0);
                    *run += 1;
                    if *run > longest.0 {
                        longest = (*run, node);
                    }
                    if staleness > deepest.0 {
                        deepest = (staleness, node);
                    }
                } else if current.remove(&node).is_some() {
                    episodes += 1;
                }
            }
        }
        episodes += current.len() as u64;
    }
    let mut out = String::from("staleness episodes (consecutive stale ticks per node):\n");
    let _ = writeln!(out, "  episodes: {episodes}");
    let _ = writeln!(out, "  longest: {} ticks (node {})", longest.0, longest.1);
    let _ = writeln!(
        out,
        "  deepest: staleness {} (node {})",
        deepest.0, deepest.1
    );
    out
}

/// The result of stitching a client export against a server export by the
/// shared `(node, generation tick)` flight-recorder identity.
///
/// "Shipped" counts are the wire records the client's channel fates imply
/// ([`IngestRecord`](mobigrid_wireless::IngestRecord) semantics: the final
/// per-tick fate becomes one `Update`/`Filtered`/`Lost` record, a
/// duplicate delivery ships two `Update`s, a late arrival ships one more);
/// "applied" counts are the server's `lu_apply` verdicts. The conservation
/// laws across the merged stream:
///
/// 1. `updates_shipped == server_received` — every LU the client put on
///    the wire was applied (accepted, rejected-duplicate or
///    rejected-stale) by the server;
/// 2. `filtered_shipped + lost_shipped == server_estimated +
///    server_degraded + server_no_record` — every absence note was
///    estimated through.
///
/// Both laws admit a NAK'd-frames term: when the server rejected whole
/// frames (`serve.frames_rejected > 0`) the per-record split is unknowable
/// offline, so the laws are reported but not enforced.
#[derive(Debug, Default)]
pub struct StitchReport {
    /// The tick window both traces fully retain (`None` when the traces
    /// do not overlap); identities outside it are not reconciled.
    pub window: Option<(u64, u64)>,
    /// `(node, seq)` identities examined inside the window.
    pub identities: u64,
    /// `Update` records the client shipped (duplicates and late arrivals
    /// included).
    pub updates_shipped: u64,
    /// `Filtered` records the client shipped (suppressed + no-coverage).
    pub filtered_shipped: u64,
    /// `Lost` records the client shipped (final losses + deferrals).
    pub lost_shipped: u64,
    /// Deferred frames still on the air when the client trace ends.
    pub in_flight: u64,
    /// Server applies with a received-class outcome (accepted / duplicate
    /// / stale).
    pub server_received: u64,
    /// Server applies with outcome `estimated`.
    pub server_estimated: u64,
    /// Server applies with outcome `degraded`.
    pub server_degraded: u64,
    /// Server applies with outcome `no_record` (an absence note the
    /// broker had nothing to estimate from).
    pub server_no_record: u64,
    /// Whole ingest frames the server NAK'd (`serve.frames_rejected`).
    pub naks: u64,
    /// `ingest_batch` span events found in the server trace.
    pub batches: u64,
    /// Client-send → server-receive wall-clock latencies in µs, one per
    /// batch that carried a send time.
    pub wire_us: Vec<f64>,
    /// Server-side decode+apply latencies in µs, one per stamped batch.
    pub apply_us: Vec<f64>,
    /// Human-readable descriptions of identities whose client and server
    /// views disagree (capped at [`MAX_UNRECONCILED_SHOWN`] in the
    /// summary; the count is exact).
    pub unreconciled: Vec<String>,
}

/// How many unreconciled identities [`stitch_summary`] prints in full.
pub const MAX_UNRECONCILED_SHOWN: usize = 10;

impl StitchReport {
    /// True when every identity reconciled and both aggregate laws hold
    /// (laws are waived, but still reported, when frames were NAK'd).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.unreconciled.is_empty()
            && (self.naks > 0
                || (self.updates_shipped == self.server_received
                    && self.filtered_shipped + self.lost_shipped
                        == self.server_estimated + self.server_degraded + self.server_no_record))
    }
}

/// The tick range a single-run trace fully retains: its first event tick
/// (plus one when the ring dropped events, leaving that tick partial)
/// through its last event tick.
fn retained_window(trace: &Trace) -> Option<(u64, u64)> {
    let first = trace.events.first()?.tick;
    let last = trace.events.last()?.tick;
    let lo = if trace.events_dropped > 0 {
        first.checked_add(1)?
    } else {
        first
    };
    (lo <= last).then_some((lo, last))
}

/// The wire records one client chain implies, as
/// `(updates, filtered, lost, pending_deferred)`. Channel events are
/// grouped by their recording tick; the last fate in each tick group is
/// the tick's final outcome and maps to exactly one record (two for a
/// duplicate delivery).
fn client_shipment(chain: &Chain, network: bool) -> (u64, u64, u64, u64) {
    let sent = chain.decision.is_some_and(|(s, _, _)| s);
    if chain.channel.is_empty() {
        return if network || !sent {
            // Suppressed (or idle behind a network): one Filtered record.
            (0, 1, 0, 0)
        } else {
            // No network: a sent update reaches the broker directly.
            (1, 0, 0, 0)
        };
    }
    let (mut updates, mut filtered, mut lost) = (0u64, 0u64, 0u64);
    let (mut deferred, mut late) = (0u64, 0u64);
    let mut i = 0;
    while i < chain.channel.len() {
        let tick = chain.channel[i].0;
        let mut last = chain.channel[i].3;
        while i < chain.channel.len() && chain.channel[i].0 == tick {
            last = chain.channel[i].3;
            i += 1;
        }
        match last {
            LinkFate::Delivered => updates += 1,
            LinkFate::DeliveredDuplicate => updates += 2,
            LinkFate::ArrivedLate => {
                updates += 1;
                late += 1;
            }
            LinkFate::Deferred => {
                lost += 1;
                deferred += 1;
            }
            LinkFate::DroppedFault | LinkFate::DroppedCorrupted => lost += 1,
            LinkFate::DroppedNoCoverage => filtered += 1,
        }
    }
    (updates, filtered, lost, deferred.saturating_sub(late))
}

/// Stitches a client flight-recorder export against a server export:
/// reconciles every `(node, seq)` identity inside the overlapping
/// retained window and collects the batch-span latency attributions.
#[must_use]
pub fn stitch(client: &Trace, server: &Trace) -> StitchReport {
    let mut report = StitchReport {
        naks: server
            .counters
            .get("serve.frames_rejected")
            .copied()
            .unwrap_or(0),
        ..StitchReport::default()
    };
    for e in &server.events {
        if let EventKind::IngestBatch {
            wire_us, apply_us, ..
        } = e.kind
        {
            report.batches += 1;
            if wire_us.is_finite() {
                report.wire_us.push(wire_us);
            }
            if apply_us.is_finite() {
                report.apply_us.push(apply_us);
            }
        }
    }
    let (Some(cw), Some(sw)) = (retained_window(client), retained_window(server)) else {
        return report;
    };
    let lo = cw.0.max(sw.0);
    let hi = cw.1.min(sw.1);
    if lo > hi {
        return report;
    }
    report.window = Some((lo, hi));
    let network = has_channel_events(&client.events);
    let client_chains = chains(&client.events);
    let server_chains = chains(&server.events);
    for ((node, seq), cc) in &client_chains {
        if u64::from(*seq) < lo || u64::from(*seq) > hi {
            continue;
        }
        report.identities += 1;
        let (updates, filtered, lost, pending) = client_shipment(cc, network);
        report.updates_shipped += updates;
        report.filtered_shipped += filtered;
        report.lost_shipped += lost;
        report.in_flight += pending;
        let (mut received, mut estimated, mut degraded, mut no_record) = (0u64, 0u64, 0u64, 0u64);
        if let Some(sc) = server_chains.get(&(*node, *seq)) {
            for (_, outcome, _, _) in &sc.applies {
                match outcome {
                    ApplyOutcome::Accepted | ApplyOutcome::Duplicate | ApplyOutcome::Stale => {
                        received += 1;
                    }
                    ApplyOutcome::Estimated => estimated += 1,
                    ApplyOutcome::Degraded => degraded += 1,
                    ApplyOutcome::NoRecord => no_record += 1,
                }
            }
        }
        report.server_received += received;
        report.server_estimated += estimated;
        report.server_degraded += degraded;
        report.server_no_record += no_record;
        // Per-identity record conservation (unknowable under frame NAKs).
        if report.naks == 0
            && (received != updates || estimated + degraded + no_record != filtered + lost)
        {
            report.unreconciled.push(format!(
                "node {node} seq {seq}: client shipped {updates} update(s), {filtered} \
                 filtered, {lost} lost; server applied {received} received-class, \
                 {estimated} estimated, {degraded} degraded, {no_record} no-record"
            ));
        }
    }
    // Server identities the client never shipped are their own violation.
    for (node, seq) in server_chains.keys() {
        if u64::from(*seq) >= lo
            && u64::from(*seq) <= hi
            && !client_chains.contains_key(&(*node, *seq))
        {
            report.unreconciled.push(format!(
                "node {node} seq {seq}: applied by the server, never shipped by the client"
            ));
        }
    }
    report
}

fn sorted_percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((q * sorted.len() as f64).ceil().max(1.0) as usize - 1).min(sorted.len() - 1);
    sorted[idx]
}

/// Renders a [`StitchReport`] for the CLI.
#[must_use]
pub fn stitch_summary(report: &StitchReport) -> String {
    let mut out = String::new();
    match report.window {
        Some((lo, hi)) => {
            let _ = writeln!(
                out,
                "stitch: reconciling ticks {lo}..={hi}, {} identities",
                report.identities
            );
        }
        None => out.push_str("stitch: no overlapping retained window\n"),
    }
    let _ = writeln!(
        out,
        "client shipped: {} update(s), {} filtered, {} lost ({} still in flight)",
        report.updates_shipped, report.filtered_shipped, report.lost_shipped, report.in_flight
    );
    let _ = writeln!(
        out,
        "server applied: {} received-class, {} estimated, {} degraded, {} no-record; {} frame(s) NAK'd",
        report.server_received,
        report.server_estimated,
        report.server_degraded,
        report.server_no_record,
        report.naks
    );
    if report.batches > 0 {
        let mut wire = report.wire_us.clone();
        wire.sort_by(f64::total_cmp);
        let mut apply = report.apply_us.clone();
        apply.sort_by(f64::total_cmp);
        let _ = write!(out, "batches: {} stitched", report.batches);
        if wire.is_empty() {
            out.push_str(", wire latency unknown (no send timestamps)");
        } else {
            let _ = write!(
                out,
                ", wire p50={:.0}us p99={:.0}us",
                sorted_percentile(&wire, 0.50),
                sorted_percentile(&wire, 0.99)
            );
        }
        if !apply.is_empty() {
            let _ = write!(
                out,
                ", server apply p50={:.0}us p99={:.0}us",
                sorted_percentile(&apply, 0.50),
                sorted_percentile(&apply, 0.99)
            );
        }
        out.push('\n');
    }
    for line in report.unreconciled.iter().take(MAX_UNRECONCILED_SHOWN) {
        let _ = writeln!(out, "UNRECONCILED {line}");
    }
    if report.unreconciled.len() > MAX_UNRECONCILED_SHOWN {
        let _ = writeln!(
            out,
            "... and {} more unreconciled identities",
            report.unreconciled.len() - MAX_UNRECONCILED_SHOWN
        );
    }
    if report.naks == 0 {
        if report.updates_shipped != report.server_received {
            let _ = writeln!(
                out,
                "VIOLATION update conservation: {} shipped != {} applied",
                report.updates_shipped, report.server_received
            );
        }
        let absences = report.filtered_shipped + report.lost_shipped;
        let estimates = report.server_estimated + report.server_degraded + report.server_no_record;
        if absences != estimates {
            let _ = writeln!(
                out,
                "VIOLATION absence conservation: {absences} shipped != {estimates} estimated through"
            );
        }
    }
    if report.is_clean() {
        out.push_str("stitch reconciles: every shipped LU is accounted for\n");
    }
    out
}

/// The result of replaying the invariant battery over a trace.
#[derive(Debug)]
pub struct CheckReport {
    /// Complete ticks the monitors examined.
    pub ticks_checked: u64,
    /// Ticks excluded because ring truncation left them partial.
    pub ticks_skipped: u64,
    /// Violations found by the offline replay.
    pub violations: Vec<Violation>,
    /// `invariant_violation` events the online monitors had already
    /// recorded into the stream.
    pub stream_violations: u64,
}

impl CheckReport {
    /// True when neither the replay nor the online monitors found
    /// anything.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.stream_violations == 0
    }
}

/// The per-node buffers each tick's vitals are rebuilt into, reused from
/// tick to tick.
struct TickBuild {
    fates: Vec<NodeFate>,
    wire_seqs: Vec<u32>,
    staleness: Vec<u32>,
    late_accepted: Vec<bool>,
}

impl TickBuild {
    fn new(nodes: usize) -> Self {
        TickBuild {
            fates: vec![NodeFate::Idle; nodes],
            wire_seqs: vec![0u32; nodes],
            staleness: vec![0u32; nodes],
            late_accepted: vec![false; nodes],
        }
    }

    /// Rebuilds the vitals of one tick from its `events`, with `in_flight`
    /// frames in flight after it.
    fn vitals(&mut self, events: &[TraceEvent], network: bool, in_flight: u64) -> TickVitals<'_> {
        self.fates.fill(NodeFate::Idle);
        self.wire_seqs.fill(0);
        self.staleness.fill(0);
        self.late_accepted.fill(false);
        let mut v = TickVitals {
            tick: events[0].tick,
            in_flight,
            ..TickVitals::default()
        };
        for e in events {
            match e.kind {
                EventKind::LuGenerated { .. } => v.generated += 1,
                EventKind::LuDecision { node, sent, .. } => {
                    if sent {
                        v.filter_sent += 1;
                        if !network {
                            // Without a network a sent update reaches the
                            // broker directly.
                            if let Some(f) = self.fates.get_mut(node as usize) {
                                *f = NodeFate::Accepted;
                            }
                        }
                    } else {
                        v.suppressed += 1;
                    }
                }
                EventKind::LuChannel {
                    node,
                    wire_seq,
                    fate,
                    ..
                } => {
                    let slot = node as usize;
                    let node_fate = match fate {
                        LinkFate::ArrivedLate => {
                            v.arrived_late += 1;
                            continue;
                        }
                        LinkFate::Delivered | LinkFate::DeliveredDuplicate => {
                            v.delivered += 1;
                            NodeFate::Accepted
                        }
                        LinkFate::Deferred => {
                            v.lost += 1;
                            v.deferred += 1;
                            NodeFate::LostInFlight
                        }
                        LinkFate::DroppedNoCoverage => {
                            v.no_coverage += 1;
                            NodeFate::NoCoverage
                        }
                        LinkFate::DroppedFault | LinkFate::DroppedCorrupted => {
                            v.lost += 1;
                            NodeFate::LostInFlight
                        }
                    };
                    v.on_air += 1;
                    if let Some(f) = self.fates.get_mut(slot) {
                        *f = node_fate;
                        self.wire_seqs[slot] = wire_seq;
                    }
                }
                EventKind::LuApply {
                    node,
                    seq,
                    outcome,
                    staleness,
                    ..
                } => {
                    let slot = node as usize;
                    if u64::from(seq) == e.tick {
                        if let Some(s) = self.staleness.get_mut(slot) {
                            *s = staleness;
                        }
                    } else if outcome == ApplyOutcome::Accepted {
                        if let Some(l) = self.late_accepted.get_mut(slot) {
                            *l = true;
                        }
                    }
                }
                _ => {}
            }
        }
        if !network {
            v.on_air = v.filter_sent;
            v.delivered = v.filter_sent;
        }
        v.stale_nodes = self.staleness.iter().filter(|s| **s > 0).count() as u32;
        v.node_fates = &self.fates;
        v.wire_seqs = if network { &self.wire_seqs } else { &[] };
        v.staleness = &self.staleness;
        v.late_accepted = &self.late_accepted;
        v
    }
}

/// One tick's change to the number of frames in flight.
fn flight_delta(events: &[TraceEvent]) -> i64 {
    let delta = |e: &TraceEvent| match e.kind {
        EventKind::LuChannel { fate, .. } => {
            i64::from(fate == LinkFate::Deferred) - i64::from(fate == LinkFate::ArrivedLate)
        }
        _ => 0,
    };
    events.iter().map(delta).sum()
}

/// Replays the invariant battery (in resuming mode — the stream's head
/// may be truncated) over every segment of the trace, one tick at a time.
///
/// # Errors
///
/// An LU event naming a node outside its segment's population.
pub fn check(trace: &Trace) -> Result<CheckReport, String> {
    let mut report = CheckReport {
        ticks_checked: 0,
        ticks_skipped: 0,
        violations: Vec::new(),
        stream_violations: trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::InvariantViolation { .. }))
            .count() as u64,
    };
    for (si, seg) in trace.segments().iter().enumerate() {
        // Ring truncation removes the oldest events, so only the first
        // retained tick of the first segment can be partial.
        let truncated = si == 0 && trace.events_dropped > 0;
        let skip = usize::from(truncated);
        report.ticks_skipped += skip as u64;
        let network = has_channel_events(seg);
        let mut b = TickBuild::new(population(seg, truncated)?);
        // Frames in flight after each tick. The running value starts at
        // an unknown depth when the head is truncated; shift it so the
        // smallest observed value is zero — the continuity law only
        // constrains differences.
        let flight: Vec<i64> = ticks_of(seg)
            .scan(0, |f, t| {
                *f += flight_delta(t);
                Some(*f)
            })
            .collect();
        let base = flight.iter().skip(skip).copied().min().unwrap_or(0).min(0);
        let mut monitors = MonitorSet::resuming();
        for (t, flight) in ticks_of(seg).zip(&flight).skip(skip) {
            let vitals = b.vitals(t, network, (flight - base) as u64);
            report
                .violations
                .extend_from_slice(monitors.check_tick(&vitals));
            report.ticks_checked += 1;
        }
    }
    Ok(report)
}

/// Renders a [`CheckReport`] for the CLI.
#[must_use]
pub fn check_summary(report: &CheckReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "checked {} tick(s) ({} skipped as truncated)",
        report.ticks_checked, report.ticks_skipped
    );
    for v in &report.violations {
        let _ = writeln!(out, "VIOLATION {v}");
    }
    if report.stream_violations > 0 {
        let _ = writeln!(
            out,
            "VIOLATION {} invariant_violation event(s) recorded online",
            report.stream_violations
        );
    }
    if report.is_clean() {
        out.push_str("all invariants hold\n");
    }
    out
}

/// The queries the `trace` binary answers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceCli {
    /// The JSONL export to analyse.
    pub path: String,
    /// Print one node's timeline.
    pub node: Option<u32>,
    /// Print the delivery-latency distribution.
    pub latency: bool,
    /// Print the longest suppression runs per cluster.
    pub suppression: bool,
    /// Print staleness episodes.
    pub staleness: bool,
    /// Replay the invariant monitors and fail on violations.
    pub check: bool,
    /// Stitch a client export against a server export; `path` is the
    /// client trace and `server_path` the server trace.
    pub stitch: bool,
    /// The server-side JSONL export (second positional under `--stitch`).
    pub server_path: String,
}

const USAGE: &str = "usage: trace FILE.jsonl [--node N] [--latency] [--suppression] [--staleness] [--check]\n       trace --stitch CLIENT.jsonl SERVER.jsonl [--check]";

/// Parses the `trace` binary's arguments (without the program name).
///
/// # Errors
///
/// Returns a usage message on unknown flags or a missing file operand.
pub fn parse_trace_args<I>(args: I) -> Result<TraceCli, String>
where
    I: IntoIterator<Item = String>,
{
    let mut cli = TraceCli::default();
    let mut paths: Vec<String> = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--node" => {
                let v = args
                    .next()
                    .ok_or_else(|| format!("--node needs a value; {USAGE}"))?;
                cli.node = Some(
                    v.parse()
                        .map_err(|_| format!("--node needs an integer; {USAGE}"))?,
                );
            }
            "--latency" => cli.latency = true,
            "--suppression" => cli.suppression = true,
            "--staleness" => cli.staleness = true,
            "--check" => cli.check = true,
            "--stitch" => cli.stitch = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}; {USAGE}"));
            }
            path => paths.push(path.to_string()),
        }
    }
    if cli.stitch {
        if paths.len() != 2 {
            return Err(format!(
                "--stitch needs CLIENT.jsonl and SERVER.jsonl; {USAGE}"
            ));
        }
        cli.server_path = paths.pop().unwrap_or_default();
    } else if paths.len() > 1 {
        return Err(format!("more than one input file; {USAGE}"));
    }
    cli.path = paths.pop().unwrap_or_default();
    if cli.path.is_empty() {
        return Err(format!("an input file is required; {USAGE}"));
    }
    Ok(cli)
}

/// Runs the selected queries over an already-parsed trace and returns the
/// rendered output plus the process exit code (1 when `--check` found a
/// violation, 0 otherwise).
///
/// # Errors
///
/// An LU event naming a node outside its segment's population.
pub fn run_queries(cli: &TraceCli, trace: &Trace) -> Result<(String, i32), String> {
    let mut out = String::new();
    let mut code = 0;
    let specific =
        cli.node.is_some() || cli.latency || cli.suppression || cli.staleness || cli.check;
    if !specific {
        out.push_str(&summary(trace)?);
    }
    if let Some(node) = cli.node {
        out.push_str(&node_timeline(trace, node));
    }
    if cli.latency {
        out.push_str(&latency_report(trace));
    }
    if cli.suppression {
        out.push_str(&suppression_report(trace));
    }
    if cli.staleness {
        out.push_str(&staleness_report(trace));
    }
    if cli.check {
        let report = check(trace)?;
        out.push_str(&check_summary(&report));
        if !report.is_clean() {
            code = 1;
        }
    }
    Ok((out, code))
}

/// Entry point for the `trace` binary: parse flags, read and parse the
/// file, run the queries, print, and return the exit code.
///
/// # Errors
///
/// Returns CLI, I/O and parse errors, and out-of-range node ids, as
/// strings for the binary to print.
pub fn run_main<I>(args: I) -> Result<(String, i32), String>
where
    I: IntoIterator<Item = String>,
{
    let cli = parse_trace_args(args)?;
    let text =
        std::fs::read_to_string(&cli.path).map_err(|e| format!("reading {}: {e}", cli.path))?;
    let trace = parse_trace(&text).map_err(|e| format!("{}: {e}", cli.path))?;
    if cli.stitch {
        let server_text = std::fs::read_to_string(&cli.server_path)
            .map_err(|e| format!("reading {}: {e}", cli.server_path))?;
        let server = parse_trace(&server_text).map_err(|e| format!("{}: {e}", cli.server_path))?;
        let report = stitch(&trace, &server);
        let code = i32::from(cli.check && !report.is_clean());
        return Ok((stitch_summary(&report), code));
    }
    run_queries(&cli, &trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event_line(tick: u64, body: &str) -> String {
        format!("{{\"type\":\"event\",\"tick\":{tick},\"seq\":0,{body}}}")
    }

    fn mini_trace(events_dropped: u64, lines: &[String]) -> String {
        let mut out = format!(
            "{{\"type\":\"meta\",\"format\":\"mobigrid-telemetry/2\",\"counters\":0,\"gauges\":0,\"histograms\":0,\"spans\":0,\"events\":{},\"spans_dropped\":0,\"events_dropped\":{events_dropped}}}\n",
            lines.len()
        );
        for l in lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }

    /// One healthy no-network tick for one node.
    fn healthy_tick(tick: u64, staleness: u32) -> Vec<String> {
        vec![
            event_line(
                tick,
                &format!("\"kind\":\"lu_generated\",\"node\":0,\"seq\":{tick},\"x\":1.0,\"y\":2.0"),
            ),
            event_line(
                tick,
                &format!(
                    "\"kind\":\"lu_decision\",\"node\":0,\"seq\":{tick},\"sent\":true,\"displacement\":null,\"dth\":0.0"
                ),
            ),
            event_line(
                tick,
                &format!(
                    "\"kind\":\"lu_apply\",\"node\":0,\"seq\":{tick},\"outcome\":\"accepted\",\"staleness\":{staleness},\"blend\":1.0"
                ),
            ),
            event_line(
                tick,
                &format!("\"kind\":\"lu_error\",\"node\":0,\"seq\":{tick},\"err_le\":0.0,\"err_raw\":0.0"),
            ),
        ]
    }

    #[test]
    fn parses_and_reconstructs_chains() {
        let mut lines = healthy_tick(1, 0);
        lines.extend(healthy_tick(2, 0));
        let trace = parse_trace(&mini_trace(0, &lines)).unwrap();
        assert_eq!(trace.events.len(), 8);
        let segments = trace.segments();
        assert_eq!(segments.len(), 1);
        let all = chains(segments[0]);
        assert_eq!(all.len(), 2);
        for chain in all.values() {
            assert!(chain.is_complete(false), "{chain:?}");
        }
    }

    #[test]
    fn segments_split_at_tick_regressions() {
        let mut lines = healthy_tick(5, 0);
        lines.extend(healthy_tick(6, 0));
        lines.extend(healthy_tick(1, 0)); // second run starts
        let trace = parse_trace(&mini_trace(0, &lines)).unwrap();
        assert_eq!(trace.segments().len(), 2);
    }

    #[test]
    fn check_passes_a_healthy_trace() {
        let mut lines = Vec::new();
        for t in 1..=5 {
            lines.extend(healthy_tick(t, 0));
        }
        let trace = parse_trace(&mini_trace(0, &lines)).unwrap();
        let report = check(&trace).unwrap();
        assert_eq!(report.ticks_checked, 5);
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn check_flags_a_seeded_conservation_violation() {
        let mut lines = healthy_tick(1, 0);
        // Tick 2 generates an update but records no decision for it.
        lines.push(event_line(
            2,
            "\"kind\":\"lu_generated\",\"node\":0,\"seq\":2,\"x\":1.0,\"y\":2.0",
        ));
        let trace = parse_trace(&mini_trace(0, &lines)).unwrap();
        let report = check(&trace).unwrap();
        assert!(!report.is_clean());
        assert!(report
            .violations
            .iter()
            .any(|v| v.monitor == MonitorKind::FilterConservation && v.tick == 2));
    }

    #[test]
    fn check_flags_a_seeded_staleness_violation() {
        let mut lines = healthy_tick(1, 0);
        lines.extend(healthy_tick(2, 0));
        // Tick 3 claims the accepted node is suddenly stale.
        lines.extend(healthy_tick(3, 7));
        let trace = parse_trace(&mini_trace(0, &lines)).unwrap();
        let report = check(&trace).unwrap();
        assert!(report
            .violations
            .iter()
            .any(|v| v.monitor == MonitorKind::StalenessConsistency && v.tick == 3));
    }

    #[test]
    fn truncated_first_tick_is_skipped() {
        let mut lines = vec![event_line(
            1,
            "\"kind\":\"lu_error\",\"node\":0,\"seq\":1,\"err_le\":0.0,\"err_raw\":0.0",
        )];
        lines.extend(healthy_tick(2, 0));
        let trace = parse_trace(&mini_trace(3, &lines)).unwrap();
        let report = check(&trace).unwrap();
        assert_eq!(report.ticks_skipped, 1);
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let text = mini_trace(0, &[String::from("{\"type\":\"event\",\"tick\":1}")]);
        let err = parse_trace(&text).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let err = parse_trace("{\"type\":\"mystery\"}\n").unwrap_err();
        assert!(err.contains("unknown line type"), "{err}");
    }

    #[test]
    fn cli_parses_flags_and_requires_a_file() {
        let cli = parse_trace_args(
            ["t.jsonl", "--node", "3", "--check", "--latency"]
                .iter()
                .map(|s| (*s).to_string()),
        )
        .unwrap();
        assert_eq!(cli.path, "t.jsonl");
        assert_eq!(cli.node, Some(3));
        assert!(cli.check && cli.latency);
        assert!(!cli.suppression && !cli.staleness);
        assert!(parse_trace_args(std::iter::empty()).is_err());
        assert!(parse_trace_args(["--bogus".to_string()]).is_err());
    }

    #[test]
    fn check_exit_code_reflects_violations() {
        let mut lines = healthy_tick(1, 0);
        let trace = parse_trace(&mini_trace(0, &lines)).unwrap();
        let cli = TraceCli {
            path: "x".into(),
            check: true,
            ..TraceCli::default()
        };
        let (out, code) = run_queries(&cli, &trace).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("all invariants hold"));

        lines.push(event_line(
            2,
            "\"kind\":\"lu_generated\",\"node\":0,\"seq\":2,\"x\":0.0,\"y\":0.0",
        ));
        let bad = parse_trace(&mini_trace(0, &lines)).unwrap();
        let (out, code) = run_queries(&cli, &bad).unwrap();
        assert_eq!(code, 1);
        assert!(out.contains("VIOLATION"), "{out}");
    }

    #[test]
    fn stitch_cli_requires_exactly_two_files() {
        let cli = parse_trace_args(
            ["--stitch", "c.jsonl", "s.jsonl", "--check"]
                .iter()
                .map(|s| (*s).to_string()),
        )
        .unwrap();
        assert!(cli.stitch && cli.check);
        assert_eq!(cli.path, "c.jsonl");
        assert_eq!(cli.server_path, "s.jsonl");
        assert!(parse_trace_args(["--stitch".to_string(), "c.jsonl".to_string()]).is_err());
        assert!(parse_trace_args(["a.jsonl".to_string(), "b.jsonl".to_string()]).is_err());
    }

    /// One networked client tick for node 0: generated → sent →
    /// delivered.
    fn client_tick(tick: u64) -> Vec<String> {
        vec![
            event_line(
                tick,
                &format!("\"kind\":\"lu_generated\",\"node\":0,\"seq\":{tick},\"x\":1.0,\"y\":2.0"),
            ),
            event_line(
                tick,
                &format!(
                    "\"kind\":\"lu_decision\",\"node\":0,\"seq\":{tick},\"sent\":true,\"displacement\":null,\"dth\":0.0"
                ),
            ),
            event_line(
                tick,
                &format!(
                    "\"kind\":\"lu_channel\",\"node\":0,\"seq\":{tick},\"wire_seq\":{tick},\"attempt\":0,\"fate\":\"delivered\",\"due_tick\":{tick}"
                ),
            ),
        ]
    }

    /// The matching server-side view of [`client_tick`].
    fn server_tick(tick: u64) -> Vec<String> {
        vec![
            event_line(
                tick,
                &format!(
                    "\"kind\":\"ingest_batch\",\"batch_tick\":{tick},\"batch_seq\":{tick},\"records\":2,\"wire_us\":120.0,\"apply_us\":8.0"
                ),
            ),
            event_line(
                tick,
                &format!(
                    "\"kind\":\"lu_apply\",\"node\":0,\"seq\":{tick},\"outcome\":\"accepted\",\"staleness\":0,\"blend\":1.0"
                ),
            ),
        ]
    }

    #[test]
    fn stitch_reconciles_a_healthy_pair() {
        let mut client_lines = Vec::new();
        let mut server_lines = Vec::new();
        for t in 1..=4 {
            client_lines.extend(client_tick(t));
            server_lines.extend(server_tick(t));
        }
        let client = parse_trace(&mini_trace(0, &client_lines)).unwrap();
        let server = parse_trace(&mini_trace(0, &server_lines)).unwrap();
        let report = stitch(&client, &server);
        assert_eq!(report.window, Some((1, 4)));
        assert_eq!(report.identities, 4);
        assert_eq!(report.updates_shipped, 4);
        assert_eq!(report.server_received, 4);
        assert_eq!(report.in_flight, 0);
        assert_eq!(report.batches, 4);
        assert_eq!(report.wire_us.len(), 4);
        assert!(report.is_clean(), "{:?}", report.unreconciled);
        let out = stitch_summary(&report);
        assert!(out.contains("stitch reconciles"), "{out}");
        assert!(out.contains("wire p50=120us"), "{out}");
    }

    #[test]
    fn stitch_flags_a_dropped_apply_and_counts_flight() {
        let mut client_lines = Vec::new();
        for t in 1..=3 {
            client_lines.extend(client_tick(t));
        }
        // Tick 4: deferred, never arrives — stays in flight, ships Lost.
        client_lines.push(event_line(
            4,
            "\"kind\":\"lu_generated\",\"node\":0,\"seq\":4,\"x\":1.0,\"y\":2.0",
        ));
        client_lines.push(event_line(
            4,
            "\"kind\":\"lu_decision\",\"node\":0,\"seq\":4,\"sent\":true,\"displacement\":null,\"dth\":0.0",
        ));
        client_lines.push(event_line(
            4,
            "\"kind\":\"lu_channel\",\"node\":0,\"seq\":4,\"wire_seq\":4,\"attempt\":0,\"fate\":\"deferred\",\"due_tick\":6",
        ));
        let mut server_lines = Vec::new();
        for t in 1..=2 {
            server_lines.extend(server_tick(t));
        }
        // Tick 3's update never applied; tick 4's Lost note degraded.
        server_lines.extend(server_tick(3).drain(..1)); // batch span only
        server_lines.push(event_line(
            4,
            "\"kind\":\"lu_apply\",\"node\":0,\"seq\":4,\"outcome\":\"degraded\",\"staleness\":1,\"blend\":0.5",
        ));
        let client = parse_trace(&mini_trace(0, &client_lines)).unwrap();
        let server = parse_trace(&mini_trace(0, &server_lines)).unwrap();
        let report = stitch(&client, &server);
        assert_eq!(report.in_flight, 1);
        assert_eq!(report.lost_shipped, 1);
        assert_eq!(report.server_degraded, 1);
        assert!(!report.is_clean());
        let out = stitch_summary(&report);
        assert!(out.contains("UNRECONCILED node 0 seq 3"), "{out}");
        assert!(out.contains("VIOLATION update conservation"), "{out}");
    }

    #[test]
    fn stitch_waives_laws_under_frame_naks_and_windows_truncation() {
        let mut client_lines = Vec::new();
        let mut server_lines = vec![String::from(
            "{\"type\":\"counter\",\"name\":\"serve.frames_rejected\",\"value\":1}",
        )];
        for t in 1..=4 {
            client_lines.extend(client_tick(t));
            server_lines.extend(server_tick(t));
        }
        // Server ring dropped events: its first retained tick is partial.
        let client = parse_trace(&mini_trace(0, &client_lines)).unwrap();
        let server = parse_trace(&mini_trace(5, &server_lines)).unwrap();
        let report = stitch(&client, &server);
        assert_eq!(report.naks, 1);
        // Window starts after the server's truncated first tick.
        assert_eq!(report.window, Some((2, 4)));
        assert_eq!(report.identities, 3);
        // Per-identity checks are waived under NAKs, so a clean overlap
        // still reconciles.
        assert!(report.is_clean(), "{:?}", report.unreconciled);
        assert!(stitch_summary(&report).contains("1 frame(s) NAK'd"));
    }
}
