//! Flight-recorder wrap-around under a sustained serve workload: with a
//! deliberately tiny event ring the server drops its oldest events, and
//! the truncated export must still parse, segment into monotone ticks,
//! and pass `trace --check` (the checker skips the partial first
//! retained tick and resumes the invariant battery from the next one).

use std::sync::Arc;

use mobigrid_adf::EstimatorKind;
use mobigrid_broker_serve::{ServeConfig, Server};
use mobigrid_experiments::simconfig::SimConfig;
use mobigrid_experiments::trace;
use mobigrid_wireless::{encode_batch, IngestRecord, MnId};

#[test]
fn truncated_server_export_still_checks_and_segments() {
    let mut sim = SimConfig::scenario("campus_140").seed(3).build().unwrap();
    let server = Arc::new(
        Server::new(&ServeConfig {
            nodes: sim.node_count(),
            shards: 4,
            estimator: EstimatorKind::Brown { alpha: 0.5 },
            flight: true,
            // ~14 ticks of campus_140 events: the ring wraps several
            // times over a 60-tick replay.
            events: 4096,
            ..ServeConfig::default()
        })
        .unwrap(),
    );
    for (i, anchor) in sim.columns().home_anchors().iter().enumerate() {
        if let Some(anchor) = anchor {
            server.store().set_home_anchor(MnId::new(i as u32), *anchor);
        }
    }

    let mut ops = Vec::new();
    for tick in 0..60u64 {
        ops.clear();
        ops.push(IngestRecord::BatchSpan {
            tick: tick + 1,
            batch_seq: tick + 1,
            sent_unix_us: 0,
            dt_s: 1.0,
        });
        sim.step_tapped(&mut ops);
        server
            .ingest_frame(&encode_batch(&ops))
            .expect("batch applies");
    }

    let export = server.export_telemetry();
    let parsed = trace::parse_trace(&export).expect("truncated export parses");
    assert!(parsed.events_dropped > 0, "the tiny ring must have wrapped");
    assert!(!parsed.events.is_empty());

    // The retained tail must still be in recording order: one segment,
    // monotone non-decreasing ticks, ending at the final tick.
    let segments = parsed.segments();
    assert_eq!(segments.len(), 1, "retained events form one monotone run");
    let first_tick = parsed.events.first().unwrap().tick;
    let last_tick = parsed.events.last().unwrap().tick;
    assert!(
        first_tick > 1,
        "the oldest ticks must have been overwritten"
    );
    assert_eq!(last_tick, 60);

    // The invariant battery resumes mid-stream: the partial first
    // retained tick is skipped, everything after it checks clean.
    let report = trace::check(&parsed).unwrap();
    assert_eq!(report.ticks_skipped, 1);
    assert!(
        report.ticks_checked >= 5,
        "checked {} ticks",
        report.ticks_checked
    );
    assert!(report.is_clean(), "{:?}", report.violations);

    // The counters survive truncation untouched — 60 batches regardless
    // of how many events the ring retained.
    assert_eq!(parsed.counters.get("serve.batches"), Some(&60));
}
