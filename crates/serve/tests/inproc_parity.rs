//! Deterministic in-process transport tests: a campus-140 replay through
//! the serve ingest path must leave the served store **bit-identical** to
//! the in-sim broker, and the store must stay coherent under concurrent
//! ingest and queries.

use std::sync::Arc;

use mobigrid_adf::EstimatorKind;
use mobigrid_broker_serve::{InProcClient, ServeConfig, Server};
use mobigrid_experiments::simconfig::SimConfig;
use mobigrid_telemetry::json::Value;
use mobigrid_wireless::{encode_batch, MnId};

fn campus_server(sim: &mobigrid_adf::MobileGridSim) -> Arc<Server> {
    let server = Arc::new(
        Server::new(&ServeConfig {
            nodes: sim.node_count(),
            shards: 4,
            estimator: EstimatorKind::Brown { alpha: 0.5 },
            ..ServeConfig::default()
        })
        .unwrap(),
    );
    for (i, anchor) in sim.columns().home_anchors().iter().enumerate() {
        if let Some(anchor) = anchor {
            server.store().set_home_anchor(MnId::new(i as u32), *anchor);
        }
    }
    server
}

#[test]
fn campus_replay_is_bit_identical_to_the_in_sim_broker() {
    let mut sim = SimConfig::scenario("campus_140").seed(7).build().unwrap();
    let server = campus_server(&sim);
    let client = InProcClient::new(Arc::clone(&server));

    let mut ops = Vec::new();
    for tick in 1..=120u64 {
        ops.clear();
        sim.step_tapped(&mut ops);
        let applied = client.send_frame(&encode_batch(&ops)).unwrap();
        assert_eq!(applied, ops.len());
        if tick % 30 == 0 {
            assert_eq!(
                server.store().state_digest(),
                sim.broker_with_le().state_digest(),
                "tick {tick}: served state diverged"
            );
        }
    }

    // Digest parity plus a direct record-by-record comparison.
    assert_eq!(
        server.store().state_digest(),
        sim.broker_with_le().state_digest()
    );
    for i in 0..sim.node_count() {
        let node = MnId::new(i as u32);
        assert_eq!(
            server.store().position(node),
            sim.broker_with_le().location(node),
            "node {i}: served record differs"
        );
        assert_eq!(
            server.store().staleness(node),
            sim.broker_with_le().staleness(node),
            "node {i}: served staleness differs"
        );
    }
    let stats = server.store().stats();
    assert_eq!(stats.ticks, 120);
    assert_eq!(stats.received, sim.broker_with_le().received_count());
    assert_eq!(stats.estimated, sim.broker_with_le().estimated_count());
}

#[test]
fn queries_answer_through_the_in_proc_transport() {
    let mut sim = SimConfig::scenario("campus_140").seed(3).build().unwrap();
    let server = campus_server(&sim);
    let client = InProcClient::new(Arc::clone(&server));
    let mut ops = Vec::new();
    for _ in 0..40 {
        ops.clear();
        sim.step_tapped(&mut ops);
        client.send_frame(&encode_batch(&ops)).unwrap();
    }
    let stats = client.call(r#"{"op":"stats"}"#).unwrap();
    assert_eq!(stats.get("ticks").and_then(Value::as_u64), Some(40));
    assert_eq!(stats.get("live_records").and_then(Value::as_u64), Some(140));
    let census = client
        .call(r#"{"op":"census","x0":-10000.0,"y0":-10000.0,"x1":10000.0,"y1":10000.0}"#)
        .unwrap();
    assert_eq!(census.get("inside").and_then(Value::as_u64), Some(140));
    let digest = client.call(r#"{"op":"digest"}"#).unwrap();
    let hex = digest.get("digest").and_then(Value::as_str).unwrap();
    assert_eq!(
        u64::from_str_radix(hex, 16).unwrap(),
        sim.broker_with_le().state_digest()
    );
}

#[test]
fn concurrent_ingest_and_queries_stay_coherent() {
    // The replay itself runs the sim at --threads 4; the server fields
    // queries from four hammering threads while batches apply.
    let mut sim = SimConfig::scenario("campus_140")
        .seed(11)
        .threads(4)
        .build()
        .unwrap();
    let server = campus_server(&sim);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let client = InProcClient::new(server);
                let mut answered = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let request = match (answered + w) % 3 {
                        0 => format!("{{\"op\":\"position\",\"node\":{}}}", answered % 140),
                        1 => "{\"op\":\"staleness_report\"}".to_string(),
                        _ => "{\"op\":\"stats\"}".to_string(),
                    };
                    client.call(&request).unwrap();
                    answered += 1;
                }
                answered
            })
        })
        .collect();

    let client = InProcClient::new(Arc::clone(&server));
    let mut ops = Vec::new();
    for _ in 0..80 {
        ops.clear();
        sim.step_tapped(&mut ops);
        client.send_frame(&encode_batch(&ops)).unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let answered: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert!(answered > 0, "query workers never got a response");

    // Concurrency must not have perturbed the replay: still bit-identical.
    assert_eq!(
        server.store().state_digest(),
        sim.broker_with_le().state_digest()
    );
}
