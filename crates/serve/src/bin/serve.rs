//! The broker-service host binary.
//!
//! ```text
//! serve [--ingest ADDR] [--query ADDR] [--admin ADDR] [--nodes N] [--shards S]
//!       [--telemetry PATH] [--events N] [--profile]
//! ```
//!
//! Binds the ingest (length-prefixed wire batches), query
//! (line-delimited JSON RPC) and admin (HTTP `/metrics`, `/health`,
//! `/ready`) listeners, prints the bound addresses, and runs until a
//! `{"op":"shutdown"}` RPC arrives. With `--telemetry` the server runs
//! its flight recorder (per-LU `lu_channel` / `lu_apply` events plus one
//! `ingest_batch` span per stamped frame, ring capacity `--events`) and
//! exports the merged telemetry as JSONL on shutdown — the same format
//! the experiment harness emits, accepted by `trace --check` and, paired
//! with a client export, by `trace --stitch`. With `--profile` the
//! ingest hot phases (CRC verify, frame decode, shard apply) and the
//! `digest` query's fold are timed into `serve.phase.*_us` histograms,
//! visible on `/metrics`.

use std::sync::Arc;
use std::time::Duration;

use mobigrid_broker_serve::{admin, net, ServeConfig, Server};

const USAGE: &str = "usage: serve [--ingest ADDR] [--query ADDR] [--admin ADDR] [--nodes N] \
                     [--shards S] [--telemetry PATH] [--events N] [--profile]";

struct Cli {
    ingest: String,
    query: String,
    admin: String,
    nodes: usize,
    shards: usize,
    telemetry: Option<String>,
    events: usize,
    profile: bool,
}

fn parse_args() -> Cli {
    let mut cli = Cli {
        ingest: "127.0.0.1:47471".to_string(),
        query: "127.0.0.1:47472".to_string(),
        admin: "127.0.0.1:47473".to_string(),
        nodes: 1024,
        shards: 4,
        telemetry: None,
        events: ServeConfig::DEFAULT_EVENTS,
        profile: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--ingest" => cli.ingest = value("--ingest"),
            "--query" => cli.query = value("--query"),
            "--admin" => cli.admin = value("--admin"),
            "--nodes" => {
                cli.nodes = value("--nodes")
                    .parse()
                    .unwrap_or_else(|e| panic!("--nodes: {e}"));
            }
            "--shards" => {
                cli.shards = value("--shards")
                    .parse()
                    .unwrap_or_else(|e| panic!("--shards: {e}"));
            }
            "--telemetry" => cli.telemetry = Some(value("--telemetry")),
            "--events" => {
                cli.events = value("--events")
                    .parse()
                    .unwrap_or_else(|e| panic!("--events: {e}"));
            }
            "--profile" => cli.profile = true,
            other => panic!("unknown flag {other:?}\n{USAGE}"),
        }
    }
    cli
}

fn main() {
    let cli = parse_args();
    let server = Arc::new(
        Server::new(&ServeConfig {
            nodes: cli.nodes,
            shards: cli.shards,
            flight: cli.telemetry.is_some(),
            profile: cli.profile,
            events: cli.events,
            ..ServeConfig::default()
        })
        .expect("valid server configuration"),
    );
    let (ingest_addr, ingest_handle) =
        net::spawn_ingest(Arc::clone(&server), cli.ingest.as_str()).expect("ingest bind");
    let (query_addr, query_handle) =
        net::spawn_query(Arc::clone(&server), cli.query.as_str()).expect("query bind");
    let (admin_addr, admin_handle) =
        admin::spawn_admin(Arc::clone(&server), cli.admin.as_str()).expect("admin bind");
    println!(
        "serve: ingest on {ingest_addr}, query on {query_addr}, admin on {admin_addr}, {} nodes / {} shards",
        cli.nodes, cli.shards
    );

    while !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(25));
    }
    ingest_handle.join().expect("ingest accept loop");
    query_handle.join().expect("query accept loop");
    admin_handle.join().expect("admin accept loop");

    if let Some(path) = &cli.telemetry {
        std::fs::write(path, server.export_telemetry()).expect("telemetry export");
        println!("serve: telemetry exported to {path}");
    }
    let stats = server.store().stats();
    println!(
        "serve: shutdown after {} batches / {} records ({} ticks, {} received, {} rejected)",
        server.counter("serve.batches"),
        server.counter("serve.records"),
        stats.ticks,
        stats.received,
        stats.rejected,
    );
}
