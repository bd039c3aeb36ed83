//! Scenario replay load generator for the broker service.
//!
//! ```text
//! loadgen [--ingest ADDR] [--query ADDR] [--scenario NAME] [--ticks N]
//!         [--seed S] [--speed X] [--queries K] [--loss P]
//!         [--telemetry PATH] [--events N]
//! ```
//!
//! Builds the named scenario through the unified `SimConfig` front door,
//! replays its mobility trace tick by tick through the filter policy
//! (`step_tapped` produces exactly the broker op stream the with-LE
//! broker saw), streams the encoded batches to the serve ingest port at
//! `--speed`× real time (0 = unthrottled), and interleaves `--queries`
//! RPCs per tick. At the end it compares the server's state digest with
//! the in-process simulation's broker — they must be **bit-identical** —
//! prints the sustained ingest rate (records per second of wire busy
//! time, pacing sleeps excluded) and the client-observed query latency
//! p50/p99, and sends the shutdown RPC. Exits non-zero on a digest
//! mismatch, a transport error, or a zero ingest rate.
//!
//! With `--loss p` the replayed simulation runs on a deterministic lossy
//! channel (drop `p`, corrupt `p/4`, delay `p/2` up to 3 ticks,
//! duplicate `p/4` — the fault-matrix mapping), so the served broker
//! degrades exactly as the in-sim one does.
//!
//! Every batch is prepended with a `BatchSpan` stamp (tick, batch
//! sequence, wall-clock send time, tick length), giving it a
//! cross-process span identity. With `--telemetry` the replayed sim also
//! records its own flight-recorder events (ring capacity `--events`) and
//! exports them as JSONL at the end — pair it with the server's export
//! and run `trace --stitch client.jsonl server.jsonl --check` to
//! reconcile every LU end to end. The final report also fetches the
//! server's own ingest/query latency quantiles over the stats RPC and
//! warns when the client- and server-observed query latencies diverge by
//! more than 2× (a symptom of queueing or transport stalls the server
//! cannot see).

use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use mobigrid_adf::MobileGridSim;
use mobigrid_broker_serve::net::{IngestClient, QueryClient};
use mobigrid_experiments::fault_matrix::FaultMatrixConfig;
use mobigrid_experiments::simconfig::SimConfig;
use mobigrid_telemetry::json::Value;
use mobigrid_telemetry::{BucketSpec, HistogramDelta, MemoryRecorder, NoopRecorder, Recorder};
use mobigrid_wireless::IngestRecord;

const USAGE: &str = "usage: loadgen [--ingest ADDR] [--query ADDR] [--scenario NAME] \
                     [--ticks N] [--seed S] [--speed X] [--queries K] [--loss P] \
                     [--telemetry PATH] [--events N]";

struct Cli {
    ingest: String,
    query: String,
    /// The replayed sim: `--scenario` and `--seed` set its fields.
    sim: SimConfig,
    ticks: u64,
    speed: f64,
    queries: u64,
    loss: f64,
    telemetry: Option<String>,
    events: usize,
}

fn parse_args() -> Cli {
    let mut cli = Cli {
        ingest: "127.0.0.1:47471".to_string(),
        query: "127.0.0.1:47472".to_string(),
        sim: SimConfig::scenario("campus_140"),
        ticks: 200,
        speed: 50.0,
        queries: 8,
        loss: 0.0,
        telemetry: None,
        events: 65536,
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
            "--scenario" => cli.sim.scenario = value("--scenario"),
            "--ticks" => {
                cli.ticks = value("--ticks")
                    .parse()
                    .unwrap_or_else(|e| panic!("--ticks: {e}"))
            }
            "--seed" => {
                cli.sim.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|e| panic!("--seed: {e}"))
            }
            "--speed" => {
                cli.speed = value("--speed")
                    .parse()
                    .unwrap_or_else(|e| panic!("--speed: {e}"))
            }
            "--queries" => {
                cli.queries = value("--queries")
                    .parse()
                    .unwrap_or_else(|e| panic!("--queries: {e}"));
            }
            "--loss" => {
                cli.loss = value("--loss")
                    .parse()
                    .unwrap_or_else(|e| panic!("--loss: {e}"))
            }
            "--telemetry" => cli.telemetry = Some(value("--telemetry")),
            "--events" => {
                cli.events = value("--events")
                    .parse()
                    .unwrap_or_else(|e| panic!("--events: {e}"));
            }
            other => panic!("unknown flag {other:?}\n{USAGE}"),
        }
    }
    cli
}

/// The replayed sim; a positive `--loss` injects the fault matrix's plan
/// for that loss rate.
fn build_sim(cli: &Cli) -> MobileGridSim {
    let mut config = cli.sim.clone();
    if cli.loss > 0.0 {
        let plan = FaultMatrixConfig::plan_for(cli.loss);
        config = config.faults(plan, cli.sim.seed ^ 0x5eed);
    }
    config.build().unwrap_or_else(|e| panic!("loadgen: {e}"))
}

/// An approximate quantile from a latency histogram: the lower bound of
/// the first bucket whose cumulative count reaches `q`.
fn percentile_us(h: &HistogramDelta, q: f64) -> f64 {
    let target = (q * h.count() as f64).ceil().max(1.0) as u64;
    let spec = h.spec();
    let mut cumulative = 0u64;
    for slot in 0..spec.slots() {
        cumulative += h.bucket(slot);
        if cumulative >= target {
            return spec.lower_bound(slot).unwrap_or(0.0);
        }
    }
    h.max().unwrap_or(0.0)
}

fn run_query(
    client: &mut QueryClient,
    latency: &mut HistogramDelta,
    request: &str,
) -> Result<Value, String> {
    let started = Instant::now();
    let response = client.call(request);
    latency.record(started.elapsed().as_secs_f64() * 1e6);
    response
}

fn main() {
    let cli = parse_args();
    let mut sim = build_sim(&cli);
    let mut ingest = IngestClient::connect(cli.ingest.as_str()).expect("connect to ingest port");
    let mut query = QueryClient::connect(cli.query.as_str()).expect("connect to query port");

    // Register every node's home anchor so the server's estimators start
    // from the same state as the in-sim broker.
    let anchors: Vec<(usize, mobigrid_geo::Point)> = sim
        .columns()
        .home_anchors()
        .iter()
        .enumerate()
        .filter_map(|(i, a)| a.map(|p| (i, p)))
        .collect();
    for (i, p) in &anchors {
        query
            .call_ok(&format!(
                "{{\"op\":\"register\",\"node\":{i},\"x\":{},\"y\":{}}}",
                p.x, p.y
            ))
            .expect("register home anchor");
    }

    let node_count = sim.node_count() as u64;
    // SimConfig default tick length
    let dt_s = 1.0;
    // Flight recorder for the client half of `trace --stitch`; a noop
    // (zero-cost) without --telemetry.
    let mut flight: Box<dyn Recorder> = match cli.telemetry {
        Some(_) => Box::new(MemoryRecorder::with_capacity(cli.events, cli.events)),
        None => Box::new(NoopRecorder),
    };
    let mut ops = Vec::new();
    let mut latency = HistogramDelta::new(BucketSpec::log_spaced(1.0, 2.0, 20));
    let mut records = 0u64;
    let mut busy = Duration::ZERO;
    let started = Instant::now();
    for tick in 0..cli.ticks {
        if cli.speed > 0.0 {
            let due = Duration::from_secs_f64(tick as f64 * dt_s / cli.speed);
            if let Some(wait) = due.checked_sub(started.elapsed()) {
                std::thread::sleep(wait);
            }
        }
        ops.clear();
        // The batch-span stamp leads the batch; its send time is patched
        // in right before the wire write below.
        ops.push(IngestRecord::BatchSpan {
            tick: tick + 1,
            batch_seq: tick + 1,
            sent_unix_us: 0,
            dt_s,
        });
        sim.step_tapped_recorded(flight.as_mut(), &mut ops);
        if let IngestRecord::BatchSpan { sent_unix_us, .. } = &mut ops[0] {
            *sent_unix_us = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(0));
        }
        let send_started = Instant::now();
        let applied = ingest.send_batch(&ops).expect("batch rejected mid-replay");
        busy += send_started.elapsed();
        assert_eq!(
            applied as usize,
            ops.len(),
            "server applied a partial batch"
        );
        records += ops.len() as u64;

        for k in 0..cli.queries {
            let request = match k % 4 {
                0 => format!(
                    "{{\"op\":\"position\",\"node\":{}}}",
                    (tick + k) % node_count
                ),
                1 => "{\"op\":\"census\",\"x0\":0.0,\"y0\":0.0,\"x1\":500.0,\"y1\":500.0}"
                    .to_string(),
                2 => "{\"op\":\"staleness_report\"}".to_string(),
                _ => "{\"op\":\"stats\"}".to_string(),
            };
            run_query(&mut query, &mut latency, &request).expect("query RPC failed");
        }
    }

    // Parity: the served broker must be bit-identical to the in-sim one.
    let response = query.call_ok("{\"op\":\"digest\"}").expect("digest query");
    let served = response
        .get("digest")
        .and_then(Value::as_str)
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .expect("digest response carries a hex digest");
    let local = sim.broker_with_le().state_digest();
    let parity_ok = served == local;

    let busy_s = busy.as_secs_f64();
    let lu_per_s = if busy_s > 0.0 {
        records as f64 / busy_s
    } else {
        0.0
    };
    println!(
        "loadgen: {} ticks, {records} records in {:.3} s wire time -> {lu_per_s:.0} LU/s sustained",
        cli.ticks, busy_s
    );
    if latency.count() > 0 {
        println!(
            "loadgen: {} queries, p50={:.0}us p99={:.0}us max={:.0}us",
            latency.count(),
            percentile_us(&latency, 0.50),
            percentile_us(&latency, 0.99),
            latency.max().unwrap_or(0.0),
        );
    }
    // The server's own view of the same latencies, from its metrics
    // recorder over the stats RPC. A client p99 far above the server's
    // means the time went to queueing or the transport, not to serving.
    let stats = query.call_ok("{\"op\":\"stats\"}").expect("stats RPC");
    let server_quantile = |key: &str| stats.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    let (srv_q50, srv_q99) = (
        server_quantile("query_p50_us"),
        server_quantile("query_p99_us"),
    );
    println!(
        "loadgen: server-side query p50={srv_q50:.0}us p99={srv_q99:.0}us, ingest p50={:.0}us p99={:.0}us",
        server_quantile("ingest_p50_us"),
        server_quantile("ingest_p99_us"),
    );
    if latency.count() > 0 {
        let client_p99 = percentile_us(&latency, 0.99);
        if srv_q99 > 0.0 && client_p99 > 2.0 * srv_q99 {
            println!(
                "loadgen: WARNING client query p99 {client_p99:.0}us is more than 2x the \
                 server-side {srv_q99:.0}us — latency is accruing outside the server"
            );
        }
    }
    println!(
        "loadgen: parity {}",
        if parity_ok { "ok" } else { "MISMATCH" }
    );
    query
        .call_ok("{\"op\":\"shutdown\"}")
        .expect("shutdown RPC");

    if let Some(path) = &cli.telemetry {
        let rec = flight
            .into_any()
            .downcast::<MemoryRecorder>()
            .expect("telemetry recorder is a MemoryRecorder");
        std::fs::write(path, rec.to_jsonl()).expect("telemetry export");
        println!("loadgen: telemetry exported to {path}");
    }

    if !parity_ok {
        eprintln!("loadgen: server digest {served:016x} != local digest {local:016x}");
        std::process::exit(1);
    }
    if lu_per_s <= 0.0 {
        eprintln!("loadgen: zero sustained ingest rate");
        std::process::exit(1);
    }
}
