//! JSONL and CSV exporters for [`MemoryRecorder`].
//!
//! Both formats are hand-rendered (the hermetic build carries no JSON
//! dependency) and deterministic: metrics in name order, spans and events
//! in recorded order. Exporting the same recorder twice — or recorders
//! from runs at different thread counts — yields byte-identical output.

use std::fmt::Write as _;

use crate::event::EventKind;
use crate::hist::HistogramDelta;
use crate::json::f64_or_null;
use crate::recorder::MemoryRecorder;

/// An `Option<f64>` bound as a JSON number or `null`.
fn json_bound(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), f64_or_null)
}

fn write_histogram(out: &mut String, name: &str, h: &HistogramDelta) {
    let _ = write!(
        out,
        "{{\"type\":\"histogram\",\"name\":\"{name}\",\"count\":{},\"min\":{},\"max\":{},\"buckets\":[",
        h.count(),
        json_bound(h.min()),
        json_bound(h.max()),
    );
    let spec = h.spec();
    let mut first = true;
    for slot in 0..spec.slots() {
        let count = h.bucket(slot);
        if count == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "[{},{},{count}]",
            json_bound(spec.lower_bound(slot)),
            json_bound(spec.upper_bound(slot)),
        );
    }
    out.push_str("]}\n");
}

fn write_event_kind(out: &mut String, kind: &EventKind) {
    match kind {
        EventKind::LuGenerated { node, seq, x, y } => {
            let _ = write!(
                out,
                "\"kind\":\"lu_generated\",\"node\":{node},\"seq\":{seq},\"x\":{},\"y\":{}",
                f64_or_null(*x),
                f64_or_null(*y)
            );
        }
        EventKind::LuClassified {
            node,
            seq,
            class,
            cluster,
            dth,
        } => {
            let _ = write!(
                out,
                "\"kind\":\"lu_classified\",\"node\":{node},\"seq\":{seq},\"class\":\"{}\",\"cluster\":{cluster},\"dth\":{}",
                class.name(),
                f64_or_null(*dth)
            );
        }
        EventKind::LuDecision {
            node,
            seq,
            sent,
            displacement,
            dth,
        } => {
            let _ = write!(
                out,
                "\"kind\":\"lu_decision\",\"node\":{node},\"seq\":{seq},\"sent\":{sent},\"displacement\":{},\"dth\":{}",
                f64_or_null(*displacement),
                f64_or_null(*dth)
            );
        }
        EventKind::LuChannel {
            node,
            seq,
            wire_seq,
            attempt,
            fate,
            due_tick,
        } => {
            let _ = write!(
                out,
                "\"kind\":\"lu_channel\",\"node\":{node},\"seq\":{seq},\"wire_seq\":{wire_seq},\"attempt\":{attempt},\"fate\":\"{}\",\"due_tick\":{due_tick}",
                fate.name()
            );
        }
        EventKind::LuApply {
            node,
            seq,
            outcome,
            staleness,
            blend,
        } => {
            let _ = write!(
                out,
                "\"kind\":\"lu_apply\",\"node\":{node},\"seq\":{seq},\"outcome\":\"{}\",\"staleness\":{staleness},\"blend\":{}",
                outcome.name(),
                f64_or_null(*blend)
            );
        }
        EventKind::LuError {
            node,
            seq,
            err_le,
            err_raw,
        } => {
            let _ = write!(
                out,
                "\"kind\":\"lu_error\",\"node\":{node},\"seq\":{seq},\"err_le\":{},\"err_raw\":{}",
                f64_or_null(*err_le),
                f64_or_null(*err_raw)
            );
        }
        EventKind::InvariantViolation {
            monitor,
            node,
            expected,
            actual,
        } => {
            let _ = write!(
                out,
                "\"kind\":\"invariant_violation\",\"monitor\":\"{}\",\"node\":{node},\"expected\":{expected},\"actual\":{actual}",
                monitor.name()
            );
        }
        EventKind::StalenessTransition {
            stale_nodes,
            previous,
        } => {
            let _ = write!(
                out,
                "\"kind\":\"staleness\",\"stale_nodes\":{stale_nodes},\"previous\":{previous}"
            );
        }
        EventKind::IngestBatch {
            batch_tick,
            batch_seq,
            records,
            wire_us,
            apply_us,
        } => {
            let _ = write!(
                out,
                "\"kind\":\"ingest_batch\",\"batch_tick\":{batch_tick},\"batch_seq\":{batch_seq},\"records\":{records},\"wire_us\":{},\"apply_us\":{}",
                f64_or_null(*wire_us),
                f64_or_null(*apply_us)
            );
        }
    }
}

impl MemoryRecorder {
    /// The whole recorder as JSON Lines: one `meta` line, then counters,
    /// gauges and histograms in name order, then spans and events in
    /// recorded order. Every line is a standalone JSON object.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"type\":\"meta\",\"format\":\"mobigrid-telemetry/2\",\"counters\":{},\"gauges\":{},\"histograms\":{},\"spans\":{},\"events\":{},\"spans_dropped\":{},\"events_dropped\":{}}}",
            self.counters.len(),
            self.gauges.len(),
            self.histograms.len(),
            self.spans.len(),
            self.events.len(),
            self.spans_dropped(),
            self.events_dropped(),
        );
        for (name, v) in self.counters() {
            let _ = writeln!(
                out,
                "{{\"type\":\"counter\",\"name\":\"{name}\",\"value\":{v}}}"
            );
        }
        for (name, v) in self.gauges() {
            let _ = writeln!(
                out,
                "{{\"type\":\"gauge\",\"name\":\"{name}\",\"value\":{}}}",
                f64_or_null(v)
            );
        }
        for (name, h) in self.histograms() {
            write_histogram(&mut out, name, h);
        }
        for span in self.spans() {
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"tick\":{},\"seq\":{},\"phase\":\"{}\",\"items\":{}}}",
                span.stamp.tick,
                span.stamp.seq,
                span.phase.name(),
                span.items,
            );
        }
        for event in self.events() {
            let _ = write!(
                out,
                "{{\"type\":\"event\",\"tick\":{},\"seq\":{},",
                event.stamp.tick, event.stamp.seq
            );
            write_event_kind(&mut out, &event.kind);
            out.push_str("}\n");
        }
        out
    }

    /// Counters, gauges and histogram buckets as one CSV table
    /// (`kind,name,bucket_lo,bucket_hi,value`). Spans and events are
    /// JSONL-only.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,bucket_lo,bucket_hi,value\n");
        for (name, v) in self.counters() {
            let _ = writeln!(out, "counter,{name},,,{v}");
        }
        for (name, v) in self.gauges() {
            let _ = writeln!(out, "gauge,{name},,,{v:?}");
        }
        for (name, h) in self.histograms() {
            let spec = h.spec();
            for slot in 0..spec.slots() {
                let count = h.bucket(slot);
                if count == 0 {
                    continue;
                }
                let lo = spec
                    .lower_bound(slot)
                    .map_or(String::new(), |b| format!("{b:?}"));
                let hi = spec
                    .upper_bound(slot)
                    .map_or(String::new(), |b| format!("{b:?}"));
                let _ = writeln!(out, "histogram,{name},{lo},{hi},{count}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ApplyOutcome, LinkFate, MobilityClass, Phase};
    use crate::hist::BucketSpec;
    use crate::json;
    use crate::monitor::MonitorKind;
    use crate::recorder::Recorder;

    fn sample() -> MemoryRecorder {
        let mut rec = MemoryRecorder::new();
        rec.tick_start(1);
        rec.counter_add("sim.sent", 4);
        rec.gauge_set("sim.rmse_with_le", 1.5);
        rec.gauge_set("broker.nan", f64::NAN);
        let mut h = HistogramDelta::new(BucketSpec::log_spaced(0.5, 2.0, 6));
        h.record(0.1);
        h.record(3.0);
        h.record(1e9);
        rec.histogram_merge("sim.err_with_le", &h);
        rec.span(Phase::Observe, 140);
        rec.event(EventKind::LuGenerated {
            node: 3,
            seq: 1,
            x: 10.0,
            y: -2.5,
        });
        rec.event(EventKind::LuClassified {
            node: 3,
            seq: 1,
            class: MobilityClass::Linear,
            cluster: 2,
            dth: 40.0,
        });
        rec.event(EventKind::LuDecision {
            node: 3,
            seq: 1,
            sent: true,
            displacement: f64::NAN,
            dth: 40.0,
        });
        rec.event(EventKind::LuChannel {
            node: 3,
            seq: 1,
            wire_seq: 7,
            attempt: 0,
            fate: LinkFate::DroppedFault,
            due_tick: 0,
        });
        rec.event(EventKind::LuApply {
            node: 3,
            seq: 1,
            outcome: ApplyOutcome::Degraded,
            staleness: 2,
            blend: 0.875,
        });
        rec.event(EventKind::LuError {
            node: 3,
            seq: 1,
            err_le: 1.25,
            err_raw: 3.5,
        });
        rec.event(EventKind::InvariantViolation {
            monitor: MonitorKind::FilterConservation,
            node: u32::MAX,
            expected: 140,
            actual: 139,
        });
        rec.event(EventKind::StalenessTransition {
            stale_nodes: 1,
            previous: 0,
        });
        rec.event(EventKind::IngestBatch {
            batch_tick: 1,
            batch_seq: 1,
            records: 141,
            wire_us: f64::NAN,
            apply_us: 37.5,
        });
        rec
    }

    #[test]
    fn jsonl_lines_all_parse() {
        let text = sample().to_jsonl();
        let lines = json::validate_jsonl(&text).expect("every line must be valid JSON");
        // meta + counter + 2 gauges + histogram + span + 9 events.
        assert_eq!(lines, 15);
        assert!(text.contains("\"format\":\"mobigrid-telemetry/2\""));
        assert!(text.contains("\"name\":\"sim.sent\",\"value\":4"));
        assert!(
            text.contains("\"kind\":\"lu_generated\",\"node\":3,\"seq\":1,\"x\":10.0,\"y\":-2.5")
        );
        assert!(text.contains("\"class\":\"linear\",\"cluster\":2"));
        assert!(
            text.contains("\"sent\":true,\"displacement\":null"),
            "NaN displacement must render as null"
        );
        assert!(text.contains("\"wire_seq\":7,\"attempt\":0,\"fate\":\"dropped_fault\""));
        assert!(text.contains("\"outcome\":\"degraded\",\"staleness\":2,\"blend\":0.875"));
        assert!(text.contains("\"err_le\":1.25,\"err_raw\":3.5"));
        assert!(text.contains(
            "\"kind\":\"invariant_violation\",\"monitor\":\"filter_conservation\",\"node\":4294967295,\"expected\":140,\"actual\":139"
        ));
        assert!(text.contains("\"phase\":\"observe\""));
        assert!(
            text.contains("\"value\":null"),
            "NaN gauge must render as null"
        );
        assert!(
            text.contains(
                "\"kind\":\"ingest_batch\",\"batch_tick\":1,\"batch_seq\":1,\"records\":141,\"wire_us\":null,\"apply_us\":37.5"
            ),
            "unknown wire latency must render as null"
        );
    }

    #[test]
    fn csv_has_one_row_per_nonzero_cell() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "kind,name,bucket_lo,bucket_hi,value");
        // 1 counter + 2 gauges + 3 non-zero buckets (under, mid, over).
        assert_eq!(lines.len(), 1 + 1 + 2 + 3);
        assert!(csv.contains("counter,sim.sent,,,4"));
        assert!(csv
            .lines()
            .any(|l| l.starts_with("histogram,sim.err_with_le,,0.5,")));
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(sample().to_jsonl(), sample().to_jsonl());
        assert_eq!(sample().to_csv(), sample().to_csv());
    }
}
