//! End-to-end TCP tests: real sockets on loopback, the same parity
//! contract as the in-process transport, plus wire-level rejection.

use std::sync::Arc;

use mobigrid_adf::EstimatorKind;
use mobigrid_broker_serve::net::{spawn_ingest, spawn_query, IngestClient, QueryClient};
use mobigrid_broker_serve::{ServeConfig, Server};
use mobigrid_experiments::simconfig::SimConfig;
use mobigrid_telemetry::json::Value;
use mobigrid_wireless::encode_batch;

fn start_server(nodes: usize) -> (Arc<Server>, std::net::SocketAddr, std::net::SocketAddr) {
    let server = Arc::new(
        Server::new(&ServeConfig {
            nodes,
            shards: 4,
            estimator: EstimatorKind::Brown { alpha: 0.5 },
            ..ServeConfig::default()
        })
        .unwrap(),
    );
    let (ingest_addr, _) = spawn_ingest(Arc::clone(&server), "127.0.0.1:0").unwrap();
    let (query_addr, _) = spawn_query(Arc::clone(&server), "127.0.0.1:0").unwrap();
    (server, ingest_addr, query_addr)
}

#[test]
fn tcp_replay_reaches_digest_parity_and_shuts_down() {
    let mut sim = SimConfig::scenario("campus_140").seed(5).build().unwrap();
    let (server, ingest_addr, query_addr) = start_server(sim.node_count());

    let mut ingest = IngestClient::connect(ingest_addr).unwrap();
    let mut query = QueryClient::connect(query_addr).unwrap();
    for (i, anchor) in sim.columns().home_anchors().iter().enumerate() {
        if let Some(anchor) = anchor {
            query
                .call_ok(&format!(
                    "{{\"op\":\"register\",\"node\":{i},\"x\":{},\"y\":{}}}",
                    anchor.x, anchor.y
                ))
                .unwrap();
        }
    }

    let mut ops = Vec::new();
    for _ in 0..60 {
        ops.clear();
        sim.step_tapped(&mut ops);
        let applied = ingest.send_batch(&ops).unwrap();
        assert_eq!(applied as usize, ops.len());
    }

    let digest = query.call_ok(r#"{"op":"digest"}"#).unwrap();
    let hex = digest.get("digest").and_then(Value::as_str).unwrap();
    assert_eq!(
        u64::from_str_radix(hex, 16).unwrap(),
        sim.broker_with_le().state_digest(),
        "served state diverged from the in-sim broker over TCP"
    );

    let stats = query.call_ok(r#"{"op":"stats"}"#).unwrap();
    assert_eq!(stats.get("ticks").and_then(Value::as_u64), Some(60));
    assert!(stats.get("batches").and_then(Value::as_u64).unwrap() >= 60);

    query.call_ok(r#"{"op":"shutdown"}"#).unwrap();
    assert!(server.shutdown_requested());

    let jsonl = server.export_telemetry();
    mobigrid_telemetry::json::validate_jsonl(&jsonl).unwrap();
    assert!(jsonl.contains("serve.ingest_batch_us"));
    assert!(jsonl.contains("serve.query_us"));
}

#[test]
fn corrupt_wire_batches_are_nacked() {
    let (server, ingest_addr, _) = start_server(16);
    let mut ingest = IngestClient::connect(ingest_addr).unwrap();
    let mut frame = encode_batch(&[mobigrid_wireless::IngestRecord::TickEnd {
        tick: 1,
        time_s: 1.0,
    }]);
    let last = frame.len() - 1;
    frame[last] ^= 0xFF;
    // TickEnd carries no CRC, but flipping its last byte perturbs the
    // time field only — so corrupt the opcode instead to force a decode
    // error.
    frame[4] = 0x7F;
    let err = ingest.send_frame(&frame).unwrap_err();
    assert!(err.contains("rejected"), "{err}");
    assert_eq!(server.counter("serve.frames_rejected"), 1);
    assert_eq!(server.store().stats().ticks, 0, "nothing may apply");
}

/// Sends a batch whose last record names `hostile` to a 16-node server and
/// checks the whole batch is refused: a NAK, nothing applied (the digest
/// is unchanged), and the refusal counted.
fn refuses_a_batch_naming(hostile: u32) {
    use mobigrid_geo::Point;
    use mobigrid_wireless::{IngestRecord, LocationUpdate, MnId};

    let (server, ingest_addr, query_addr) = start_server(16);
    let mut query = QueryClient::connect(query_addr).unwrap();
    let digest = |query: &mut QueryClient| {
        let reply = query.call_ok(r#"{"op":"digest"}"#).unwrap();
        reply
            .get("digest")
            .and_then(Value::as_str)
            .unwrap()
            .to_string()
    };
    let before = digest(&mut query);

    let mut ingest = IngestClient::connect(ingest_addr).unwrap();
    let update = |node: u32| {
        IngestRecord::Update(LocationUpdate::new(
            MnId::new(node),
            1.0,
            Point::new(5.0, 5.0),
            0,
        ))
    };
    let err = ingest
        .send_batch(&[update(3), update(hostile)])
        .unwrap_err();
    assert!(err.contains("rejected"), "{err}");
    assert_eq!(server.counter("serve.frames_rejected"), 1);
    assert_eq!(server.store().stats().received, 0, "nothing may apply");
    assert_eq!(
        digest(&mut query),
        before,
        "a refused batch changed the state"
    );

    // Registering the id is refused too, with an error line.
    let reply = query
        .call(&format!(
            r#"{{"op":"register","node":{hostile},"x":1.0,"y":1.0}}"#
        ))
        .unwrap();
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false));
    assert!(
        reply
            .get("error")
            .and_then(Value::as_str)
            .is_some_and(|e| e.contains("capacity")),
        "{reply:?}"
    );
    assert_eq!(digest(&mut query), before);

    // The server still serves in-range ids afterwards.
    let mut ingest = IngestClient::connect(ingest_addr).unwrap();
    assert_eq!(ingest.send_batch(&[update(15)]).unwrap(), 1);
    assert_eq!(server.store().stats().received, 1);
}

#[test]
fn batches_naming_ids_beyond_the_capacity_are_nacked() {
    refuses_a_batch_naming(1_000_000);
}

#[test]
fn the_largest_node_id_is_refused_without_allocating() {
    refuses_a_batch_naming(u32::MAX);
}

#[test]
fn deeply_nested_query_lines_get_an_error_and_serve_keeps_answering() {
    use mobigrid_broker_serve::net::MAX_QUERY_LINE;
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::time::Duration;

    let (_server, _, query_addr) = start_server(16);
    let ask = |request: &[u8]| {
        let mut stream = std::net::TcpStream::connect(query_addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(request).unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        mobigrid_telemetry::json::parse(line.trim()).unwrap()
    };
    // A full-length line of `[`: the parser refuses it past its nesting
    // cap instead of overflowing the connection thread's stack.
    let mut deep = vec![b'['; MAX_QUERY_LINE];
    deep.push(b'\n');
    let reply = ask(&deep);
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false));
    assert!(
        reply
            .get("error")
            .and_then(Value::as_str)
            .is_some_and(|e| e.contains("nesting")),
        "{reply:?}"
    );
    // The process survived: a fresh connection still gets answers.
    let stats = ask(b"{\"op\":\"stats\"}\n");
    assert_eq!(stats.get("ok").and_then(Value::as_bool), Some(true));
}

#[test]
fn over_long_query_lines_are_refused_and_closed() {
    use mobigrid_broker_serve::net::MAX_QUERY_LINE;
    use std::io::{BufRead as _, BufReader, Read as _, Write as _};
    use std::time::Duration;

    let (_server, _, query_addr) = start_server(16);
    let mut stream = std::net::TcpStream::connect(query_addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // One byte past the cap and no newline; the socket stays open.
    stream.write_all(&vec![b'a'; MAX_QUERY_LINE + 1]).unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("an error line before the read timeout");
    let reply = mobigrid_telemetry::json::parse(line.trim()).unwrap();
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false));
    assert!(line.contains("limit"), "{line}");
    let mut rest = Vec::new();
    assert_eq!(
        reader.read_to_end(&mut rest).unwrap(),
        0,
        "the server closes the connection"
    );

    // A line of exactly the cap is still read and answered.
    let mut stream = std::net::TcpStream::connect(query_addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut request = br#"{"op":"stats"}"#.to_vec();
    request.resize(MAX_QUERY_LINE, b' ');
    request.push(b'\n');
    stream.write_all(&request).unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":true"), "{line}");
}
