//! End-to-end flight-recorder stitching: a lossy campus replay through
//! the wire codec into a flight-recording server must produce a client
//! export and a server export that `trace --stitch` reconciles with zero
//! conservation violations — every LU the client shipped is accounted
//! for by a server apply, and both single-run exports still pass
//! `trace --check` on their own.

use std::sync::Arc;

use mobigrid_adf::EstimatorKind;
use mobigrid_broker_serve::{ServeConfig, Server};
use mobigrid_experiments::simconfig::SimConfig;
use mobigrid_experiments::trace;
use mobigrid_telemetry::MemoryRecorder;
use mobigrid_wireless::{encode_batch, FaultPlan, IngestRecord, MnId};

#[test]
fn lossy_replay_stitches_with_zero_unreconciled_lus() {
    let plan = FaultPlan {
        drop_rate: 0.05,
        corrupt_rate: 0.0125,
        delay_rate: 0.025,
        max_delay_ticks: 3,
        duplicate_rate: 0.0125,
        ..FaultPlan::lossless()
    };
    let mut sim = SimConfig::scenario("campus_140")
        .seed(11)
        .faults(plan, 11 ^ 0x5eed)
        .build()
        .unwrap();
    let server = Arc::new(
        Server::new(&ServeConfig {
            nodes: sim.node_count(),
            shards: 4,
            estimator: EstimatorKind::Brown { alpha: 0.5 },
            flight: true,
            events: 1 << 18,
            ..ServeConfig::default()
        })
        .unwrap(),
    );
    for (i, anchor) in sim.columns().home_anchors().iter().enumerate() {
        if let Some(anchor) = anchor {
            server.store().set_home_anchor(MnId::new(i as u32), *anchor);
        }
    }

    let mut client_rec = MemoryRecorder::with_capacity(1 << 18, 1 << 18);
    let mut ops = Vec::new();
    for tick in 0..80u64 {
        ops.clear();
        // Deterministic stamp: sent_unix_us = 0 keeps both exports
        // byte-stable across runs.
        ops.push(IngestRecord::BatchSpan {
            tick: tick + 1,
            batch_seq: tick + 1,
            sent_unix_us: 0,
            dt_s: 1.0,
        });
        sim.step_tapped_recorded(&mut client_rec, &mut ops);
        server
            .ingest_frame(&encode_batch(&ops))
            .expect("stamped batch applies");
    }

    // The flight recorder must not perturb the state machine: the served
    // store still matches the in-sim with-LE broker bit for bit.
    assert_eq!(
        server.store().state_digest(),
        sim.broker_with_le().state_digest(),
        "flight-recording replay diverged from the in-sim broker"
    );

    let client = trace::parse_trace(&client_rec.to_jsonl()).expect("client export parses");
    let server_trace =
        trace::parse_trace(&server.export_telemetry()).expect("server export parses");
    assert_eq!(client.events_dropped, 0, "client ring must not wrap in this test");
    assert_eq!(server_trace.events_dropped, 0, "server ring must not wrap in this test");

    // Each export individually passes the single-run invariant battery.
    let client_check = trace::check(&client);
    assert!(client_check.is_clean(), "client: {:?}", client_check.violations);
    let server_check = trace::check(&server_trace);
    assert!(server_check.is_clean(), "server: {:?}", server_check.violations);

    // And the merged stream reconciles end to end.
    let report = trace::stitch(&client, &server_trace);
    assert_eq!(report.window, Some((1, 80)), "full overlap expected");
    assert!(report.identities > 1000, "lossy campus replay has thousands of identities");
    assert_eq!(report.naks, 0);
    assert_eq!(report.batches, 80);
    assert!(
        report.unreconciled.is_empty(),
        "unreconciled identities: {:?}",
        report.unreconciled
    );
    assert!(report.is_clean(), "aggregate conservation must hold");
    assert!(report.updates_shipped > 0 && report.lost_shipped > 0, "losses must occur");
    let summary = trace::stitch_summary(&report);
    assert!(summary.contains("stitch reconciles"), "{summary}");
    assert!(
        summary.contains("wire latency unknown"),
        "zero send stamps must report unknown wire latency: {summary}"
    );
}
