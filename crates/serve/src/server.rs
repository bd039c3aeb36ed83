//! The transport-independent server core: a sharded store, a metrics
//! recorder, and the ingest / query handlers both front-ends share.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use mobigrid_adf::{ApplyInfo, BrokerStore};
use mobigrid_geo::{Point, Rect};
use mobigrid_telemetry::json::{self, Value};
use mobigrid_telemetry::{
    prom, BucketSpec, EventKind, HistogramDelta, LinkFate, MemoryRecorder, Phase, Recorder,
};
use mobigrid_wireless::{
    decode_batch, verify_batch_crcs, IngestRecord, MnId, WirelessError, BATCH_PREFIX_SIZE,
};

use crate::config::ServeConfig;

/// Latency histogram buckets: 1 µs to ~1 s, log-spaced ×2.
fn latency_spec() -> BucketSpec {
    BucketSpec::log_spaced(1.0, 2.0, 20)
}

/// A [`BatchSpan`](IngestRecord::BatchSpan) stamp lifted out of an op
/// batch: `(tick, batch_seq, sent_unix_us, dt_s)`.
type BatchStamp = (u64, u64, u64, f64);

/// The broker service: one sharded [`BrokerStore`] plus a mutex-guarded
/// [`MemoryRecorder`] for `serve.*` metrics. The struct is transport-free —
/// [`Server::ingest_frame`] and [`Server::query_line`] are called directly
/// by the in-process transport and by the TCP front-ends in
/// [`net`](crate::net) alike, so both paths are behaviorally identical.
///
/// With [`ServeConfig::flight`] set a second, large-ring detail recorder
/// captures per-LU flight-recorder events (`lu_channel` / `lu_apply` /
/// `ingest_batch`) keyed by the same `(node, generation tick)` identity
/// the producing sim uses, so the server's telemetry export stitches
/// against a client export (`trace --stitch`). With
/// [`ServeConfig::profile`] set the ingest hot phases (CRC verify, frame
/// decode, shard apply) and the `digest` query's fold are timed into
/// `serve.phase.*_us` histograms. Both are off by default and their
/// branches are never taken then — the default ingest path is unchanged.
pub struct Server {
    store: BrokerStore,
    metrics: Mutex<MemoryRecorder>,
    detail: Option<Mutex<MemoryRecorder>>,
    profile: bool,
    shutdown: AtomicBool,
}

impl Server {
    /// Builds a server over a fresh, empty store.
    ///
    /// # Errors
    ///
    /// Returns the store's validation message for an invalid estimator
    /// configuration.
    pub fn new(cfg: &ServeConfig) -> Result<Self, String> {
        Ok(Server {
            store: BrokerStore::new(cfg.estimator, cfg.nodes, cfg.shards)?,
            metrics: Mutex::new(MemoryRecorder::new()),
            detail: cfg
                .flight
                .then(|| Mutex::new(MemoryRecorder::with_capacity(cfg.events, cfg.events))),
            profile: cfg.profile,
            shutdown: AtomicBool::new(false),
        })
    }

    /// The underlying sharded store (for direct inspection in tests).
    #[must_use]
    pub fn store(&self) -> &BrokerStore {
        &self.store
    }

    /// True once a `shutdown` RPC has been accepted.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Decodes one length-prefixed wire batch and applies it to the
    /// store, recording ingest metrics. Returns the number of records
    /// applied.
    ///
    /// # Errors
    ///
    /// Propagates the codec's rejection (bad prefix, unknown opcode,
    /// truncated record, CRC mismatch), and refuses a batch naming a node
    /// at or beyond [`ServeConfig::nodes`]
    /// ([`WirelessError::NodeOutOfRange`]), without applying anything;
    /// the rejection is counted under `serve.frames_rejected`.
    pub fn ingest_frame(&self, frame: &[u8]) -> Result<usize, WirelessError> {
        let started = Instant::now();
        let crc_us = if self.profile {
            let t = Instant::now();
            let verdict = verify_batch_crcs(frame.get(BATCH_PREFIX_SIZE..).unwrap_or(&[]));
            let us = t.elapsed().as_secs_f64() * 1e6;
            if let Err(e) = verdict {
                self.count_rejected_frame();
                return Err(e);
            }
            Some(us)
        } else {
            None
        };
        let t = Instant::now();
        let decoded = decode_batch(frame);
        let decode_us = t.elapsed().as_secs_f64() * 1e6;
        let checked = decoded.and_then(|ops| {
            ops.iter()
                .filter_map(IngestRecord::node)
                .try_for_each(|node| self.check_node(node))
                .map(|()| ops)
        });
        let ops = match checked {
            Ok(ops) => ops,
            Err(e) => {
                self.count_rejected_frame();
                return Err(e);
            }
        };
        let stamp: Option<BatchStamp> = ops.iter().find_map(|op| match *op {
            IngestRecord::BatchSpan {
                tick,
                batch_seq,
                sent_unix_us,
                dt_s,
            } => Some((tick, batch_seq, sent_unix_us, dt_s)),
            _ => None,
        });
        // Client-send → here wall-clock latency, when the stamp carried a
        // send time (deterministic replays stamp 0 = unknown).
        let wire_us = stamp.and_then(|(_, _, sent, _)| {
            (sent > 0).then(|| {
                let now = SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .map_or(0.0, |d| d.as_micros() as f64);
                (now - sent as f64).max(0.0)
            })
        });

        let t = Instant::now();
        let infos = if self.detail.is_some() {
            let mut infos = Vec::with_capacity(ops.len());
            self.store.apply_batch_traced(&ops, &mut infos);
            Some(infos)
        } else {
            self.store.apply_batch(&ops);
            None
        };
        let apply_us = t.elapsed().as_secs_f64() * 1e6;

        let total_us = started.elapsed().as_secs_f64() * 1e6;
        let ticks = ops
            .iter()
            .filter(|op| matches!(op, IngestRecord::TickEnd { .. }))
            .count() as u64;
        {
            let mut rec = self.metrics.lock().expect("metrics mutex");
            rec.counter_add("serve.batches", 1);
            rec.counter_add("serve.records", ops.len() as u64);
            rec.counter_add("serve.ticks", ticks);
            rec.counter_add("serve.wire_bytes", frame.len() as u64);
            rec.span(Phase::Ingest, ops.len() as u64);
            merge_sample(&mut rec, "serve.ingest_batch_us", total_us);
            if let Some(us) = wire_us {
                merge_sample(&mut rec, "serve.wire_latency_us", us);
            }
            if self.profile {
                if let Some(us) = crc_us {
                    rec.span(Phase::Crc, ops.len() as u64);
                    merge_sample(&mut rec, "serve.phase.crc_us", us);
                }
                rec.span(Phase::Decode, ops.len() as u64);
                merge_sample(&mut rec, "serve.phase.decode_us", decode_us);
                rec.span(Phase::Apply, ops.len() as u64);
                merge_sample(&mut rec, "serve.phase.apply_us", apply_us);
            }
        }
        if let (Some(detail), Some(infos)) = (&self.detail, &infos) {
            let mut rec = detail.lock().expect("detail mutex");
            emit_flight(&mut rec, &ops, infos, stamp, wire_us, apply_us);
        }
        Ok(ops.len())
    }

    /// Refuses a node at or beyond the store's capacity: the store never
    /// grows, so such an id has no slot to land in.
    fn check_node(&self, node: MnId) -> Result<(), WirelessError> {
        let capacity = self.store.capacity();
        if node.index() < capacity {
            Ok(())
        } else {
            Err(WirelessError::NodeOutOfRange {
                node: node.raw(),
                capacity,
            })
        }
    }

    fn count_rejected_frame(&self) {
        let mut rec = self.metrics.lock().expect("metrics mutex");
        rec.counter_add("serve.frames_rejected", 1);
    }

    /// Answers one line of the query RPC: parses `line` as a JSON request
    /// object, dispatches on its `"op"` member, and returns exactly one
    /// JSON line (without the trailing newline). Malformed requests
    /// produce an `{"ok":false,...}` line, never a disconnect.
    #[must_use]
    pub fn query_line(&self, line: &str) -> String {
        let started = Instant::now();
        let response = self.dispatch(line).unwrap_or_else(|e| err_line(&e));
        let elapsed_us = started.elapsed().as_secs_f64() * 1e6;
        let mut delta = HistogramDelta::new(latency_spec());
        delta.record(elapsed_us);
        let mut rec = self.metrics.lock().expect("metrics mutex");
        rec.counter_add("serve.queries", 1);
        rec.span(Phase::Query, 1);
        rec.histogram_merge("serve.query_us", &delta);
        response
    }

    fn dispatch(&self, line: &str) -> Result<String, String> {
        let req = json::parse(line).map_err(|e| format!("bad request: {e}"))?;
        let op = req
            .get("op")
            .and_then(Value::as_str)
            .ok_or("missing \"op\"")?;
        match op {
            "register" => {
                let node = node_arg(&req)?;
                let x = num_arg(&req, "x")?;
                let y = num_arg(&req, "y")?;
                self.check_node(node).map_err(|e| e.to_string())?;
                self.store.set_home_anchor(node, Point::new(x, y));
                Ok("{\"ok\":true}".to_string())
            }
            "position" => {
                let node = node_arg(&req)?;
                Ok(match self.store.position(node) {
                    Some(r) => format!(
                        "{{\"ok\":true,\"x\":{},\"y\":{},\"time_s\":{},\"estimated\":{}}}",
                        json::f64_or_null(r.position.x),
                        json::f64_or_null(r.position.y),
                        json::f64_or_null(r.time_s),
                        r.estimated
                    ),
                    None => err_line("no record for node"),
                })
            }
            "staleness" => {
                let node = node_arg(&req)?;
                Ok(format!(
                    "{{\"ok\":true,\"staleness\":{}}}",
                    self.store.staleness(node)
                ))
            }
            "census" => {
                let a = Point::new(num_arg(&req, "x0")?, num_arg(&req, "y0")?);
                let b = Point::new(num_arg(&req, "x1")?, num_arg(&req, "y1")?);
                let report = self.store.census(Rect::from_corners(a, b));
                Ok(format!(
                    "{{\"ok\":true,\"inside\":{},\"estimated\":{}}}",
                    report.inside, report.estimated
                ))
            }
            "staleness_report" => {
                let r = self.store.staleness_report();
                Ok(format!(
                    "{{\"ok\":true,\"live_records\":{},\"stale_nodes\":{},\"max_staleness\":{},\"total_staleness\":{}}}",
                    r.live_records, r.stale_nodes, r.max_staleness, r.total_staleness
                ))
            }
            "stats" => {
                let s = self.store.stats();
                let rec = self.metrics.lock().expect("metrics mutex");
                let mut out = String::from("{\"ok\":true");
                let _ = write!(
                    out,
                    ",\"received\":{},\"estimated\":{},\"lost\":{},\"rejected\":{},\"live_records\":{},\"ticks\":{},\"shards\":{}",
                    s.received, s.estimated, s.lost, s.rejected, s.live_records, s.ticks, s.shards
                );
                let _ = write!(
                    out,
                    ",\"batches\":{},\"records\":{},\"queries\":{},\"frames_rejected\":{}",
                    rec.counter("serve.batches"),
                    rec.counter("serve.records"),
                    rec.counter("serve.queries"),
                    rec.counter("serve.frames_rejected")
                );
                for (key, name) in [
                    ("ingest", "serve.ingest_batch_us"),
                    ("query", "serve.query_us"),
                ] {
                    let (p50, p99) = rec
                        .histogram(name)
                        .map_or((0.0, 0.0), |h| (h.quantile(0.50), h.quantile(0.99)));
                    let _ = write!(
                        out,
                        ",\"{key}_p50_us\":{},\"{key}_p99_us\":{}",
                        json::f64_or_null(p50),
                        json::f64_or_null(p99)
                    );
                }
                out.push('}');
                Ok(out)
            }
            "digest" => {
                let t = Instant::now();
                let digest = self.store.state_digest();
                if self.profile {
                    let us = t.elapsed().as_secs_f64() * 1e6;
                    let mut rec = self.metrics.lock().expect("metrics mutex");
                    rec.span(Phase::Digest, 1);
                    merge_sample(&mut rec, "serve.phase.digest_us", us);
                }
                Ok(format!("{{\"ok\":true,\"digest\":\"{digest:016x}\"}}"))
            }
            "shutdown" => {
                self.shutdown.store(true, Ordering::SeqCst);
                Ok("{\"ok\":true}".to_string())
            }
            other => Err(format!("unknown op {other:?}")),
        }
    }

    /// The server's telemetry as deterministic JSONL — the same format
    /// the experiment harness exports, accepted by `trace --check` and,
    /// paired with a client export, by `trace --stitch`.
    ///
    /// With the flight recorder on, the export is the detail recorder's
    /// large event ring with the metrics recorder's counters, gauges and
    /// histograms folded in (the clones are taken under each lock, the
    /// rendering happens outside both).
    #[must_use]
    pub fn export_telemetry(&self) -> String {
        let metrics = self.metrics.lock().expect("metrics mutex").clone();
        match &self.detail {
            Some(detail) => {
                let mut merged = detail.lock().expect("detail mutex").clone();
                merged.merge_from(&metrics);
                merged.to_jsonl()
            }
            None => metrics.to_jsonl(),
        }
    }

    /// The server's live metrics as one Prometheus text-format page
    /// (format 0.0.4): every `serve.*` counter, gauge and histogram from
    /// a consistent snapshot of the metrics recorder, plus per-shard
    /// occupancy gauges read from the store. The snapshot is a clone
    /// taken under the metrics lock; rendering happens outside it, so a
    /// scrape never stalls ingest for longer than the clone.
    #[must_use]
    pub fn render_metrics(&self) -> String {
        let snapshot = self.metrics.lock().expect("metrics mutex").clone();
        let mut page = prom::render(&snapshot);
        page.push_str("# TYPE serve_shard_live_records gauge\n");
        for (shard, live) in self.store.shard_live_records().iter().enumerate() {
            let _ = writeln!(page, "serve_shard_live_records{{shard=\"{shard}\"}} {live}");
        }
        page
    }

    /// The named `serve.*` counter's current total.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.lock().expect("metrics mutex").counter(name)
    }
}

/// Records one sample into the named microsecond latency histogram.
fn merge_sample(rec: &mut MemoryRecorder, name: &'static str, sample_us: f64) {
    let mut delta = HistogramDelta::new(latency_spec());
    delta.record(sample_us);
    rec.histogram_merge(name, &delta);
}

/// The generation tick an op's `time_s` maps back to.
fn generation_tick(time_s: f64, dt_s: f64) -> u64 {
    let dt = if dt_s > 0.0 { dt_s } else { 1.0 };
    (time_s / dt).round().max(0.0) as u64
}

/// Emits the flight-recorder view of one applied batch into the detail
/// recorder: one `lu_channel` / `lu_apply` pair per broker op (keyed by
/// the same `(node, generation tick)` identity the producing sim uses, so
/// the two exports stitch), plus one `ingest_batch` span event when the
/// batch carried a [`BatchSpan`](IngestRecord::BatchSpan) stamp.
fn emit_flight(
    rec: &mut MemoryRecorder,
    ops: &[IngestRecord],
    infos: &[Option<ApplyInfo>],
    stamp: Option<BatchStamp>,
    wire_us: Option<f64>,
    apply_us: f64,
) {
    let batch_tick = stamp.map(|(tick, _, _, _)| tick).or_else(|| {
        ops.iter().find_map(|op| match op {
            IngestRecord::TickEnd { tick, .. } => Some(*tick),
            _ => None,
        })
    });
    if let Some(tick) = batch_tick {
        rec.tick_start(tick);
    }
    let dt_s = stamp.map_or(1.0, |(_, _, _, dt)| dt);
    for (op, info) in ops.iter().zip(infos) {
        let Some(info) = info else { continue };
        let (node, time_s) = match op {
            IngestRecord::Update(lu) => (lu.node, lu.time_s),
            IngestRecord::Filtered { node, time_s } | IngestRecord::Lost { node, time_s } => {
                (*node, *time_s)
            }
            // Markers carry no ApplyInfo.
            IngestRecord::TickEnd { .. } | IngestRecord::BatchSpan { .. } => continue,
        };
        let gen = generation_tick(time_s, dt_s);
        let seq = u32::try_from(gen).unwrap_or(u32::MAX);
        match op {
            IngestRecord::Update(lu) => {
                let fate = match batch_tick {
                    Some(bt) if gen < bt => LinkFate::ArrivedLate,
                    _ => LinkFate::Delivered,
                };
                rec.event(EventKind::LuChannel {
                    node: lu.node.raw(),
                    seq,
                    wire_seq: lu.seq,
                    attempt: 0,
                    fate,
                    due_tick: batch_tick.unwrap_or(gen),
                });
            }
            IngestRecord::Lost { .. } => {
                rec.event(EventKind::LuChannel {
                    node: node.raw(),
                    seq,
                    wire_seq: 0,
                    attempt: 0,
                    fate: LinkFate::DroppedFault,
                    due_tick: batch_tick.unwrap_or(gen),
                });
            }
            _ => {}
        }
        rec.event(EventKind::LuApply {
            node: node.raw(),
            seq,
            outcome: info.outcome,
            staleness: info.staleness,
            blend: info.blend,
        });
    }
    if let Some((tick, batch_seq, _, _)) = stamp {
        rec.event(EventKind::IngestBatch {
            batch_tick: tick,
            batch_seq,
            records: ops.len() as u32,
            wire_us: wire_us.unwrap_or(f64::NAN),
            apply_us,
        });
    }
}

/// The in-process transport: the same frame-in, line-out surface the TCP
/// front-ends expose, minus the sockets — deterministic tests replay a
/// scenario through it and compare state digests with an in-sim run.
#[derive(Clone)]
pub struct InProcClient {
    server: Arc<Server>,
}

impl InProcClient {
    /// A client over `server`.
    #[must_use]
    pub fn new(server: Arc<Server>) -> Self {
        InProcClient { server }
    }

    /// Sends one encoded wire batch; returns the number of records
    /// applied.
    ///
    /// # Errors
    ///
    /// Propagates the codec's rejection, exactly like the TCP ingest path.
    pub fn send_frame(&self, frame: &[u8]) -> Result<usize, WirelessError> {
        self.server.ingest_frame(frame)
    }

    /// Sends one query line and returns the parsed response.
    ///
    /// # Errors
    ///
    /// Returns the parse error if the server produced an invalid response
    /// line (it cannot).
    pub fn call(&self, line: &str) -> Result<Value, String> {
        json::parse(&self.server.query_line(line))
    }
}

pub(crate) fn err_line(message: &str) -> String {
    // Escape the two characters the JSON string grammar cannot carry raw;
    // error texts are ASCII diagnostics.
    let escaped: String = message
        .chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect();
    format!("{{\"ok\":false,\"error\":\"{escaped}\"}}")
}

fn node_arg(req: &Value) -> Result<MnId, String> {
    let raw = req
        .get("node")
        .and_then(Value::as_u64)
        .ok_or("missing or non-integer \"node\"")?;
    let id = u32::try_from(raw).map_err(|_| "\"node\" exceeds u32".to_string())?;
    Ok(MnId::new(id))
}

fn num_arg(req: &Value, key: &str) -> Result<f64, String> {
    req.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing or non-numeric {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobigrid_wireless::{encode_batch, LocationUpdate};

    fn server() -> Server {
        Server::new(&ServeConfig {
            nodes: 16,
            ..ServeConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn ingest_applies_and_counts() {
        let s = server();
        let ops = [
            IngestRecord::Update(LocationUpdate::new(
                MnId::new(3),
                1.0,
                Point::new(10.0, 20.0),
                1,
            )),
            IngestRecord::Filtered {
                node: MnId::new(4),
                time_s: 1.0,
            },
            IngestRecord::TickEnd {
                tick: 1,
                time_s: 1.0,
            },
        ];
        let frame = encode_batch(&ops);
        assert_eq!(s.ingest_frame(&frame).unwrap(), 3);
        assert_eq!(s.counter("serve.batches"), 1);
        assert_eq!(s.counter("serve.records"), 3);
        assert_eq!(s.counter("serve.ticks"), 1);
        assert_eq!(s.store().stats().received, 1);
    }

    #[test]
    fn corrupt_frames_are_rejected_and_counted() {
        let s = server();
        let ops = [IngestRecord::Update(LocationUpdate::new(
            MnId::new(1),
            1.0,
            Point::new(1.0, 2.0),
            1,
        ))];
        let mut frame = encode_batch(&ops);
        let flip = frame.len() - 5;
        frame[flip] ^= 0xFF;
        assert!(s.ingest_frame(&frame).is_err());
        assert_eq!(s.counter("serve.frames_rejected"), 1);
        assert_eq!(
            s.store().stats().received,
            0,
            "rejected batch must not apply"
        );
    }

    #[test]
    fn query_rpc_round_trips() {
        let s = server();
        let ok = s.query_line(r#"{"op":"register","node":3,"x":5.0,"y":6.0}"#);
        assert_eq!(ok, "{\"ok\":true}");
        let frame = encode_batch(&[
            IngestRecord::Update(LocationUpdate::new(
                MnId::new(3),
                2.0,
                Point::new(40.0, 50.0),
                1,
            )),
            IngestRecord::TickEnd {
                tick: 1,
                time_s: 2.0,
            },
        ]);
        s.ingest_frame(&frame).unwrap();

        let pos = json::parse(&s.query_line(r#"{"op":"position","node":3}"#)).unwrap();
        assert_eq!(pos.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(pos.get("x").and_then(Value::as_f64), Some(40.0));
        assert_eq!(pos.get("estimated").and_then(Value::as_bool), Some(false));

        let miss = json::parse(&s.query_line(r#"{"op":"position","node":9}"#)).unwrap();
        assert_eq!(miss.get("ok").and_then(Value::as_bool), Some(false));

        let census = json::parse(
            &s.query_line(r#"{"op":"census","x0":0.0,"y0":0.0,"x1":100.0,"y1":100.0}"#),
        )
        .unwrap();
        assert_eq!(census.get("inside").and_then(Value::as_u64), Some(1));

        let stats = json::parse(&s.query_line(r#"{"op":"stats"}"#)).unwrap();
        assert_eq!(stats.get("received").and_then(Value::as_u64), Some(1));
        assert_eq!(stats.get("ticks").and_then(Value::as_u64), Some(1));

        let report = json::parse(&s.query_line(r#"{"op":"staleness_report"}"#)).unwrap();
        assert_eq!(report.get("live_records").and_then(Value::as_u64), Some(1));

        let digest = json::parse(&s.query_line(r#"{"op":"digest"}"#)).unwrap();
        let hex = digest.get("digest").and_then(Value::as_str).unwrap();
        assert_eq!(
            u64::from_str_radix(hex, 16).unwrap(),
            s.store().state_digest()
        );
    }

    #[test]
    fn malformed_requests_answer_instead_of_disconnecting() {
        let s = server();
        for bad in [
            "not json",
            "{}",
            r#"{"op":"warp"}"#,
            r#"{"op":"position"}"#,
            r#"{"op":"position","node":-1}"#,
            r#"{"op":"census","x0":0.0}"#,
        ] {
            let v = json::parse(&s.query_line(bad)).unwrap_or_else(|e| panic!("{bad}: {e}"));
            assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{bad}");
        }
        assert_eq!(s.counter("serve.queries"), 6);
    }

    #[test]
    fn profile_times_the_digest_only_when_queried() {
        let s = Server::new(&ServeConfig {
            nodes: 16,
            profile: true,
            ..ServeConfig::default()
        })
        .unwrap();
        let samples = |s: &Server, name: &str| {
            let rec = s.metrics.lock().unwrap();
            rec.histogram(name).map_or(0, |h| h.count())
        };
        for tick in 1..=3 {
            s.ingest_frame(&encode_batch(&[IngestRecord::TickEnd {
                tick,
                time_s: tick as f64,
            }]))
            .unwrap();
        }
        assert_eq!(samples(&s, "serve.phase.apply_us"), 3);
        assert_eq!(samples(&s, "serve.phase.digest_us"), 0, "ingest folded");
        let _ = s.query_line(r#"{"op":"digest"}"#);
        assert_eq!(samples(&s, "serve.phase.digest_us"), 1);
    }

    #[test]
    fn shutdown_rpc_raises_the_flag() {
        let s = server();
        assert!(!s.shutdown_requested());
        let _ = s.query_line(r#"{"op":"shutdown"}"#);
        assert!(s.shutdown_requested());
    }

    #[test]
    fn telemetry_export_is_valid_jsonl() {
        let s = server();
        s.ingest_frame(&encode_batch(&[IngestRecord::TickEnd {
            tick: 1,
            time_s: 1.0,
        }]))
        .unwrap();
        let _ = s.query_line(r#"{"op":"stats"}"#);
        let jsonl = s.export_telemetry();
        assert!(jsonl.contains("serve.batches"));
        mobigrid_telemetry::json::validate_jsonl(&jsonl).unwrap();
    }
}
