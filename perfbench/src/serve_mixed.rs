//! `serve_mixed`: the real `serve` binary as a child process, driven by a
//! closed loop of one client thread over two connections.
//!
//! The client sends a pre-encoded `city_1140` batch, waits for its ack
//! (the protocol allows one batch in flight), then issues `loadgen`'s
//! read mix: [`READS_PER_BATCH`] requests cycling through a point read
//! (`position`), two scan reads (`census` of a fixed 500 m × 500 m box,
//! `staleness_report`) and `stats`. Writes sit beside reads, so a store
//! change that speeds apply but slows scans shows up. No simulator runs
//! inside the timed loop: the frames are generated from the seed during
//! set-up.
//!
//! `run.py` pins this workload, and so the server child, to one CPU: a
//! closed loop hands off between client and server on every request, and
//! a cross-CPU wake-up is the most host-sensitive step there is.
//!
//! The run is a sequence of epochs. Each starts a fresh server, registers
//! the home anchors, sends the first [`WARMUP_FRAMES`] untimed (every
//! node reports on its first ticks), times the rest, and ends by checking
//! that the served state digest equals the generating sim's with-LE
//! broker after the same ticks. A fresh server per epoch lets every epoch
//! replay the same frames and be checked exactly.
//!
//! The workload's operation is one cycle of the loop: a batch round trip
//! and the reads after it. `op_us_p50` is the 10th percentile over the
//! run's epochs of each epoch's median cycle; the batch, point and scan
//! round trips it is made of are diagnostics here and metrics of the
//! traced run. `lu_sent_pct` and `rmse_le_m` are the generating sim's
//! over the timed frames; the served state is checked to be the sim
//! broker's, so the served estimates carry that error.

use std::io::{BufRead as _, BufReader, Read as _};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mobigrid_adf::{BrokerStore, EstimatorKind};
use mobigrid_broker_serve::net::{self, IngestClient, QueryClient};
use mobigrid_broker_serve::{ServeConfig, Server};
use mobigrid_experiments::simconfig::SimConfig;
use mobigrid_geo::{Point, Rect};
use mobigrid_telemetry::json::Value;
use mobigrid_wireless::{decode_batch, encode_batch, verify_batch_crcs, BATCH_PREFIX_SIZE};

use crate::procstat::{peak_rss_mb, Sched};
use crate::report::Report;
use crate::sims::Window;
use crate::stats::{fast_decile, median, us, Samples};
use crate::tracer::Tracer;
use crate::{Backend, Opts};

/// The scenario the frames are generated from.
pub const SCENARIO: &str = "city_1140";

/// Frames (one per simulated tick) generated, and sent in each epoch.
pub const FRAMES: usize = 1000;

/// Frames at the start of each epoch sent before timing starts.
pub const WARMUP_FRAMES: usize = 50;

/// Reads after each timed batch, as `loadgen` sends them by default.
pub const READS_PER_BATCH: usize = 8;

/// The census box of `loadgen`'s read mix.
const CENSUS_LINE: &str = "{\"op\":\"census\",\"x0\":0.0,\"y0\":0.0,\"x1\":500.0,\"y1\":500.0}";

/// Epochs between two timed generations of the inputs. Generating them
/// again through the run times set-up under the same host as the epochs,
/// and checks that every generation repeats the first.
pub const REGENERATE_EVERY: u64 = 8;

/// How long a server may take to accept its first connections.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// One read the client issues.
#[derive(Debug, Clone)]
pub struct Query {
    /// The request line.
    pub line: String,
    /// The same request, for in-process replay.
    pub kind: QueryKind,
}

/// What a [`Query`] asks.
#[derive(Debug, Clone, Copy)]
pub enum QueryKind {
    /// `position` of one node: a point read.
    Position,
    /// `census` of a rectangle: a scan read.
    Census(Rect),
    /// `staleness_report`: a scan read.
    StalenessReport,
    /// `stats`: the server's own counters and latency quantiles.
    Stats,
}

impl QueryKind {
    /// The `k`-th read after the frame with 0-based index `frame`, in
    /// `loadgen`'s cycle: `position` of node `(frame + k) mod nodes`, the
    /// fixed census box, `staleness_report`, `stats`.
    fn loadgen_read(frame: usize, k: usize, nodes: usize) -> Query {
        let (line, kind) = match k % 4 {
            0 => (
                format!("{{\"op\":\"position\",\"node\":{}}}", (frame + k) % nodes),
                QueryKind::Position,
            ),
            1 => (
                CENSUS_LINE.to_string(),
                QueryKind::Census(Rect::from_corners(
                    Point::new(0.0, 0.0),
                    Point::new(500.0, 500.0),
                )),
            ),
            2 => (
                "{\"op\":\"staleness_report\"}".to_string(),
                QueryKind::StalenessReport,
            ),
            _ => ("{\"op\":\"stats\"}".to_string(), QueryKind::Stats),
        };
        Query { line, kind }
    }
}

/// Everything an epoch sends, generated from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Encoded batches, prefix included, in tick order.
    pub frames: Vec<Vec<u8>>,
    /// Records in each frame: the ack each must receive.
    pub records: Vec<u32>,
    /// Nodes with a home anchor, registered before the first frame.
    pub anchors: Vec<(usize, Point)>,
    /// The reads after each frame (none for warm-up frames).
    pub queries: Vec<Vec<Query>>,
    /// Population size.
    pub nodes: usize,
    /// The generating sim's with-LE broker digest after the last frame.
    pub digest: u64,
    /// The generating sim's traffic and accuracy over the timed frames.
    pub window: Window,
}

/// Generates the inputs for `seed`: `frames` ticks of the scenario through
/// `step_tapped`, each encoded as one batch, plus the read mix. Each tick
/// and each encode is recorded as a span in `tracer`.
#[must_use]
pub fn generate(seed: u64, frames: usize, tracer: &mut Tracer) -> Inputs {
    let mut sim = SimConfig::scenario(SCENARIO)
        .seed(seed)
        .build()
        .expect("city_1140 is a valid built-in scenario");
    let nodes = sim.node_count();
    let anchors: Vec<(usize, Point)> = sim
        .columns()
        .home_anchors()
        .iter()
        .enumerate()
        .filter_map(|(i, a)| a.map(|p| (i, p)))
        .collect();
    let mut ops = Vec::with_capacity(nodes + 1);
    let mut out = Inputs {
        frames: Vec::with_capacity(frames),
        records: Vec::with_capacity(frames),
        anchors,
        queries: Vec::with_capacity(frames),
        nodes,
        digest: 0,
        window: Window::default(),
    };
    for tick in 1..=frames as u64 {
        ops.clear();
        let stats = tracer.time("sim.tick", tick, None, || sim.step_tapped(&mut ops));
        if tick as usize > WARMUP_FRAMES {
            out.window.add(&stats);
        }
        let frame = tracer.time("stream.encode", tick, None, || encode_batch(&ops));
        out.frames.push(frame);
        out.records
            .push(u32::try_from(ops.len()).expect("a batch holds fewer than 2^32 records"));
        let index = tick as usize - 1;
        let reads = if index < WARMUP_FRAMES {
            Vec::new()
        } else {
            (0..READS_PER_BATCH)
                .map(|k| QueryKind::loadgen_read(index, k, nodes))
                .collect()
        };
        out.queries.push(reads);
    }
    out.digest = sim.broker_with_le().state_digest();
    out
}

/// A running server: its addresses and how to stop it.
pub struct ServerProc {
    /// The ingest listener.
    pub ingest: SocketAddr,
    /// The query listener.
    pub query: SocketAddr,
    kind: ProcKind,
}

enum ProcKind {
    Child {
        child: Child,
        stdout: BufReader<ChildStdout>,
    },
    InProcess {
        handles: Vec<JoinHandle<()>>,
    },
}

/// The address after `key` in serve's banner line.
fn banner_addr(banner: &str, key: &str) -> Result<SocketAddr, String> {
    let rest = banner
        .split(key)
        .nth(1)
        .ok_or_else(|| format!("no {key:?} in banner {banner:?}"))?;
    let addr = rest.split([',', ' ']).next().unwrap_or_default();
    addr.parse()
        .map_err(|e| format!("bad address {addr:?} in banner: {e}"))
}

impl ServerProc {
    /// Starts a server for `nodes` nodes with every listener on an
    /// ephemeral loopback port.
    ///
    /// # Errors
    ///
    /// Spawn, bind and banner failures, as text.
    pub fn start(backend: &Backend, nodes: usize) -> Result<Self, String> {
        match backend {
            Backend::Child(bin) => Self::spawn(bin, nodes),
            Backend::InProcess => {
                let cfg = ServeConfig {
                    nodes,
                    ..ServeConfig::default()
                };
                let server = Arc::new(Server::new(&cfg)?);
                let (ingest, h1) = net::spawn_ingest(Arc::clone(&server), "127.0.0.1:0")?;
                let (query, h2) = net::spawn_query(server, "127.0.0.1:0")?;
                Ok(ServerProc {
                    ingest,
                    query,
                    kind: ProcKind::InProcess {
                        handles: vec![h1, h2],
                    },
                })
            }
        }
    }

    fn spawn(bin: &Path, nodes: usize) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["--ingest", "127.0.0.1:0", "--query", "127.0.0.1:0"])
            .args(["--admin", "127.0.0.1:0", "--nodes", &nodes.to_string()])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addrs = match read {
            Ok(n) if n > 0 => banner_addr(&banner, "ingest on ")
                .and_then(|i| Ok((i, banner_addr(&banner, "query on ")?))),
            _ => Err(format!("serve exited before its banner: {read:?}")),
        };
        match addrs {
            Ok((ingest, query)) => Ok(ServerProc {
                ingest,
                query,
                kind: ProcKind::Child { child, stdout },
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// Peak resident memory of the server, in MiB: the child's, or this
    /// process's when the server runs in process.
    #[must_use]
    pub fn peak_rss_mb(&self) -> Option<f64> {
        match &self.kind {
            ProcKind::Child { child, .. } => peak_rss_mb(&child.id().to_string()),
            ProcKind::InProcess { .. } => peak_rss_mb("self"),
        }
    }

    /// Sends the shutdown RPC and waits for the server to end.
    ///
    /// # Errors
    ///
    /// A failed RPC, or a child that exits unsuccessfully.
    pub fn stop(mut self, query: &mut QueryClient) -> Result<(), String> {
        query.call_ok("{\"op\":\"shutdown\"}")?;
        match &mut self.kind {
            ProcKind::Child { child, stdout } => {
                let mut rest = String::new();
                let _ = stdout.read_to_string(&mut rest);
                let status = child
                    .wait()
                    .map_err(|e| format!("waiting for serve: {e}"))?;
                if status.success() {
                    Ok(())
                } else {
                    Err(format!("serve exited with {status}"))
                }
            }
            ProcKind::InProcess { handles } => {
                for h in handles.drain(..) {
                    h.join()
                        .map_err(|_| "a listener thread panicked".to_string())?;
                }
                Ok(())
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // A server left running by an aborted epoch is killed, never
        // leaked. After a clean stop the child has already been reaped.
        if let ProcKind::Child { child, .. } = &mut self.kind {
            if matches!(child.try_wait(), Ok(None)) {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

/// Retries `connect` until it succeeds or the server had
/// [`CONNECT_TIMEOUT`] to come up. Never sleeps a fixed time.
fn connect_retry<T>(connect: impl Fn() -> Result<T, String>) -> Result<T, String> {
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    loop {
        match connect() {
            Ok(client) => return Ok(client),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::yield_now(),
        }
    }
}

/// Client-observed round trips of one or more epochs, in µs.
#[derive(Debug, Default)]
pub struct RoundTrips {
    /// Batch send → ack.
    pub batch: Vec<f64>,
    /// Point reads.
    pub point: Vec<f64>,
    /// Scan reads.
    pub scan: Vec<f64>,
    /// `stats` reads.
    pub stats: Vec<f64>,
    /// Cycles: a batch round trip and the reads after it.
    pub cycle: Vec<f64>,
    /// Each epoch's median cycle.
    pub cycle_p50: Vec<f64>,
    /// Each epoch's median batch round trip.
    pub batch_p50: Vec<f64>,
    /// Each epoch's median point read.
    pub point_p50: Vec<f64>,
    /// Each epoch's median scan read.
    pub scan_p50: Vec<f64>,
    /// Records acked in timed batches.
    pub acked: u64,
    /// Server set-up times: spawn to anchors registered and warm-up sent,
    /// in s.
    pub setups: Vec<f64>,
    /// Per epoch, connected to the first query reply, in ms. `serve`'s
    /// listeners poll `accept` every 25 ms, so this holds up to one poll.
    pub first_reply_ms: Vec<f64>,
    /// Server peak memory per epoch, in MiB.
    pub rss_mb: Vec<f64>,
}

fn is_ok(v: &Value) -> bool {
    v.get("ok").and_then(Value::as_bool) == Some(true)
}

/// One epoch against a fresh server: set-up, warm-up frames, timed
/// frames and reads, digest check, shutdown. Every batch, read and check
/// is an operation in `report`. Returns an error (already counted as a
/// failed operation) when the epoch could not go on.
///
/// # Errors
///
/// The first transport or server failure, as text.
pub fn epoch(
    backend: &Backend,
    inputs: &Inputs,
    rt: &mut RoundTrips,
    report: &mut Report,
    mut tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    let result = epoch_inner(backend, inputs, rt, report, &mut tracer);
    if let Err(e) = &result {
        report.fail(format!("epoch aborted: {e}"));
    }
    result
}

fn epoch_inner(
    backend: &Backend,
    inputs: &Inputs,
    rt: &mut RoundTrips,
    report: &mut Report,
    tracer: &mut Option<&mut Tracer>,
) -> Result<(), String> {
    let started = Instant::now();
    let server = ServerProc::start(backend, inputs.nodes)?;
    let mut ingest = connect_retry(|| IngestClient::connect(server.ingest))?;
    let mut query = connect_retry(|| QueryClient::connect(server.query))?;
    // The kernel queues the connection at once, but the reply waits for
    // the listener's next `accept` poll. Both listeners start polling
    // together, so the ingest connection is accepted by then too.
    let connected = Instant::now();
    query.call_ok("{\"op\":\"stats\"}")?;
    rt.first_reply_ms
        .push(connected.elapsed().as_secs_f64() * 1e3);
    for (node, p) in &inputs.anchors {
        query.call_ok(&format!(
            "{{\"op\":\"register\",\"node\":{node},\"x\":{},\"y\":{}}}",
            p.x, p.y
        ))?;
    }
    for (frame, &records) in inputs
        .frames
        .iter()
        .zip(&inputs.records)
        .take(WARMUP_FRAMES)
    {
        let acked = ingest.send_frame(frame)?;
        if acked != records {
            return Err(format!("warm-up batch acked {acked} of {records} records"));
        }
    }
    rt.setups.push(started.elapsed().as_secs_f64());

    let from = (
        rt.batch.len(),
        rt.point.len(),
        rt.scan.len(),
        rt.cycle.len(),
    );
    for (i, frame) in inputs.frames.iter().enumerate().skip(WARMUP_FRAMES) {
        let id = i as u64 + 1;
        let cycle = Instant::now();
        let sent = ingest.send_frame(frame);
        let b = Instant::now();
        let acked = sent.map_err(|e| format!("batch {id}: {e}"))?;
        report.check(acked == inputs.records[i], || {
            format!("batch {id} acked {acked} of {} records", inputs.records[i])
        });
        rt.batch.push(us(b - cycle));
        rt.acked += u64::from(acked);
        if let Some(t) = tracer.as_deref_mut() {
            t.record("client.send_frame", id, cycle, b);
        }
        for q in &inputs.queries[i] {
            let a = Instant::now();
            let response = query.call(&q.line);
            let b = Instant::now();
            let response = response.map_err(|e| format!("read after batch {id}: {e}"))?;
            report.check(is_ok(&response), || {
                format!("{} answered {response:?}", q.line)
            });
            let (samples, name) = match q.kind {
                QueryKind::Position => (&mut rt.point, "client.query_point"),
                QueryKind::Census(_) | QueryKind::StalenessReport => {
                    (&mut rt.scan, "client.query_scan")
                }
                QueryKind::Stats => (&mut rt.stats, "client.query_stats"),
            };
            samples.push(us(b - a));
            if let Some(t) = tracer.as_deref_mut() {
                t.record(name, id, a, b);
            }
        }
        rt.cycle.push(us(cycle.elapsed()));
    }

    let epoch_p50 = |all: &[f64], from: usize| Samples::new(all[from..].to_vec()).median();
    let batch_p50 = epoch_p50(&rt.batch, from.0);
    rt.batch_p50.push(batch_p50);
    rt.point_p50.push(epoch_p50(&rt.point, from.1));
    rt.scan_p50.push(epoch_p50(&rt.scan, from.2));
    rt.cycle_p50.push(epoch_p50(&rt.cycle, from.3));

    let digest = query.call_ok("{\"op\":\"digest\"}")?;
    let served = digest
        .get("digest")
        .and_then(Value::as_str)
        .and_then(|hex| u64::from_str_radix(hex, 16).ok());
    report.check(served == Some(inputs.digest), || {
        format!(
            "served digest {served:016x?} != sim digest {:016x}",
            inputs.digest
        )
    });
    if let Some(mb) = server.peak_rss_mb() {
        rt.rss_mb.push(mb);
    }
    server.stop(&mut query)
}

/// Runs the workload.
#[must_use]
pub fn run(opts: &Opts) -> Report {
    if opts.trace {
        traced(opts)
    } else {
        untraced(opts)
    }
}

fn untraced(opts: &Opts) -> Report {
    let mut report = Report::default();
    let sched = Sched::now();
    let mut gen_s = Vec::new();
    let mut first: Option<Inputs> = None;
    let mut rt = RoundTrips::default();
    let deadline = Instant::now() + opts.duration();
    let mut epochs = 0u64;
    // At least two generations, so that determinism is always checked.
    while epochs <= REGENERATE_EVERY || Instant::now() < deadline {
        if epochs.is_multiple_of(REGENERATE_EVERY) {
            let started = Instant::now();
            let fresh = generate(opts.seed, FRAMES, &mut Tracer::new());
            gen_s.push(started.elapsed().as_secs_f64());
            match &first {
                Some(first) => report.check(
                    first.frames == fresh.frames && first.digest == fresh.digest,
                    || "frames differ between two generations from one seed".to_string(),
                ),
                None => first = Some(fresh),
            }
        }
        epochs += 1;
        let inputs = first.as_ref().expect("generated before the first epoch");
        if epoch(&opts.backend, inputs, &mut rt, &mut report, None).is_err() {
            break;
        }
    }
    let inputs = first.expect("generated before the first epoch");
    let ops = (rt.batch.len() + rt.point.len() + rt.scan.len() + rt.stats.len()) as u64;

    let batch_s = rt.batch.iter().sum::<f64>() / 1e6;
    let (batch, point, scan, stats) = (
        Samples::new(rt.batch),
        Samples::new(rt.point),
        Samples::new(rt.scan),
        Samples::new(rt.stats),
    );
    report.metric(
        "setup_s",
        fast_decile(&gen_s) + fast_decile(&rt.setups),
        "s",
    );
    report.metric("peak_rss_mb", median(&rt.rss_mb), "MB");
    report.metric("op_us_p50", fast_decile(&rt.cycle_p50), "us");
    report.metric("lu_sent_pct", inputs.window.sent_pct(), "%");
    report.metric("rmse_le_m", inputs.window.rmse_le_mean(), "m");
    report.diagnostic("setup_s.median", median(&gen_s) + median(&rt.setups), "s");
    report.diagnostic("epochs", epochs as f64, "count");
    report.diagnostic("op_us_p50.median_epoch", median(&rt.cycle_p50), "us");
    report.diagnostic("ingest_batch_us_p50", fast_decile(&rt.batch_p50), "us");
    let per_batch = rt.acked as f64 / batch.len() as f64;
    report.diagnostic(
        "ingest_lu_per_s",
        per_batch / (fast_decile(&rt.batch_p50) / 1e6),
        "LU/s",
    );
    report.diagnostic("query_point_us_p50", fast_decile(&rt.point_p50), "us");
    report.diagnostic("query_scan_us_p50", fast_decile(&rt.scan_p50), "us");
    // Inside `setup_s`: the wait for serve's first `accept` poll.
    report.diagnostic("setup.first_reply_ms", median(&rt.first_reply_ms), "ms");
    // `loadgen`'s definition: every acked record over the summed round
    // trips. Its sum carries the tail, so it is a diagnostic here.
    report.diagnostic("ingest_lu_per_s_summed", rt.acked as f64 / batch_s, "LU/s");
    report.diagnostic("batches.samples", batch.len() as f64, "count");
    report.diagnostic("ingest_batch_us_p99", batch.p99(), "us");
    report.diagnostic("ingest_batch_us_mean", batch.mean(), "us");
    report.diagnostic("query_point.samples", point.len() as f64, "count");
    report.diagnostic("query_point_us_p99", point.p99(), "us");
    report.diagnostic("query_scan.samples", scan.len() as f64, "count");
    report.diagnostic("query_scan_us_p99", scan.p99(), "us");
    report.diagnostic("query_stats.samples", stats.len() as f64, "count");
    report.diagnostic("query_stats_us_p50", stats.median(), "us");
    report.hygiene(&sched, ops, false);
    report
}

/// One in-process pass over every frame through each layer's public API:
/// the codec, a 4-shard [`BrokerStore`] (as `serve` runs it), and a
/// transport-free [`Server`]. Spans are recorded for timed frames only.
fn replay_pass(inputs: &Inputs, tracer: &mut Tracer, report: &mut Report) {
    let store = BrokerStore::new(EstimatorKind::Brown { alpha: 0.5 }, inputs.nodes, 4)
        .expect("valid estimator");
    let server = Server::new(&ServeConfig {
        nodes: inputs.nodes,
        ..ServeConfig::default()
    })
    .expect("valid server configuration");
    for (node, p) in &inputs.anchors {
        store.set_home_anchor(mobigrid_wireless::MnId::new(*node as u32), *p);
        let line = format!(
            "{{\"op\":\"register\",\"node\":{node},\"x\":{},\"y\":{}}}",
            p.x, p.y
        );
        let reply = server.query_line(&line);
        report.check(reply.contains("\"ok\":true"), || {
            format!("{line} answered {reply}")
        });
    }
    let mut untimed = Tracer::new();
    for (i, frame) in inputs.frames.iter().enumerate() {
        let id = i as u64 + 1;
        let t = if i < WARMUP_FRAMES {
            &mut untimed
        } else {
            &mut *tracer
        };
        let root = t.open("replay.batch", id, None);
        let crc = t.time("stream.crc", id, Some(root), || {
            verify_batch_crcs(&frame[BATCH_PREFIX_SIZE..])
        });
        report.check(crc.is_ok(), || format!("batch {id}: CRC pass {crc:?}"));
        let ops = t.time("stream.decode", id, Some(root), || decode_batch(frame));
        let ops = match ops {
            Ok(ops) => ops,
            Err(e) => {
                report.fail(format!("batch {id}: decode {e}"));
                t.close(root);
                continue;
            }
        };
        t.time("store.apply_batch", id, Some(root), || {
            store.apply_batch(&ops)
        });
        let applied = t.time("server.ingest_frame", id, Some(root), || {
            server.ingest_frame(frame)
        });
        report.check(applied == Ok(inputs.records[i] as usize), || {
            format!("batch {id}: in-process ingest {applied:?}")
        });
        for q in &inputs.queries[i] {
            match q.kind {
                QueryKind::Position => {
                    let reply = t.time("server.query_line", id, Some(root), || {
                        server.query_line(&q.line)
                    });
                    report.check(reply.contains("\"ok\":true"), || {
                        format!("{} answered {reply}", q.line)
                    });
                }
                QueryKind::Census(rect) => {
                    t.time("store.census", id, Some(root), || store.census(rect));
                }
                QueryKind::StalenessReport => {
                    t.time("store.staleness_report", id, Some(root), || {
                        store.staleness_report()
                    });
                }
                QueryKind::Stats => {
                    let reply = server.query_line(&q.line);
                    report.check(reply.contains("\"ok\":true"), || {
                        format!("{} answered {reply}", q.line)
                    });
                }
            }
        }
        t.close(root);
    }
    for (digest, what) in [
        (store.state_digest(), "store replica"),
        (server.store().state_digest(), "in-process server"),
    ] {
        report.check(digest == inputs.digest, || {
            format!(
                "{what} digest {digest:016x} != sim digest {:016x}",
                inputs.digest
            )
        });
    }
}

fn traced(opts: &Opts) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let inputs = generate(opts.seed, FRAMES, &mut tracer);

    // Half the time replays the layers in process, half drives the real
    // server over loopback; each side runs at least once.
    let sched = Sched::now();
    let half = opts.duration() / 2;
    let started = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || started.elapsed() < half {
        passes += 1;
        replay_pass(&inputs, &mut tracer, &mut report);
    }
    let mut rt = RoundTrips::default();
    let deadline = Instant::now() + half;
    let mut epochs = 0u64;
    while epochs == 0 || Instant::now() < deadline {
        epochs += 1;
        if epoch(
            &opts.backend,
            &inputs,
            &mut rt,
            &mut report,
            Some(&mut tracer),
        )
        .is_err()
        {
            break;
        }
    }
    let client_ops = (rt.batch.len() + rt.point.len() + rt.scan.len() + rt.stats.len()) as u64;
    let replay_ops = passes * (inputs.frames.len() * 2) as u64;

    let p50 = |name: &str| tracer.durations_us(name).median();
    let timed = &inputs.frames[WARMUP_FRAMES..];
    let bytes = timed.iter().map(Vec::len).sum::<usize>() as f64 / timed.len() as f64;
    let (decode, apply, ingest) = (
        p50("stream.decode"),
        p50("store.apply_batch"),
        p50("server.ingest_frame"),
    );
    // What `Server::ingest_frame` spends beyond decoding and applying the
    // same frame: the metrics mutex and bookkeeping.
    let overhead: Vec<f64> = tracer
        .durations_in_order_us("server.ingest_frame")
        .iter()
        .zip(tracer.durations_in_order_us("stream.decode"))
        .zip(tracer.durations_in_order_us("store.apply_batch"))
        .map(|((i, d), a)| i - d - a)
        .collect();
    let (batch, point, scan) = (
        Samples::new(rt.batch),
        Samples::new(rt.point),
        Samples::new(rt.scan),
    );
    let query_line = p50("server.query_line");
    report.metric("stream.encode_us", p50("stream.encode"), "us");
    report.metric("stream.crc_us", p50("stream.crc"), "us");
    report.metric("stream.decode_us", decode, "us");
    report.metric("stream.bytes_per_batch", bytes, "B");
    report.metric("store.apply_batch_us", apply, "us");
    report.metric("store.census_us", p50("store.census"), "us");
    report.metric(
        "store.staleness_report_us",
        p50("store.staleness_report"),
        "us",
    );
    report.metric("server.ingest_frame_us", ingest, "us");
    report.metric("server.query_line_us", query_line, "us");
    report.metric("server.overhead_us", Samples::new(overhead).median(), "us");
    report.metric("net.ingest_wire_us", batch.median() - ingest, "us");
    report.metric("net.query_wire_us", point.median() - query_line, "us");
    report.metric("ingest_batch_us_p50", batch.median(), "us");
    report.metric("query_point_us_p50", point.median(), "us");
    report.metric("query_scan_us_p50", scan.median(), "us");
    report.metric("batches.samples", batch.len() as f64, "count");
    report.metric("ingest_batch_us_p99", batch.p99(), "us");
    report.metric("query_point.samples", point.len() as f64, "count");
    report.metric("query_point_us_p99", point.p99(), "us");
    report.metric("query_scan.samples", scan.len() as f64, "count");
    report.metric("query_scan_us_p99", scan.p99(), "us");
    report.hygiene(&sched, client_ops + replay_ops, true);
    opts.write_spans("serve_mixed", &tracer, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_addresses_are_parsed() {
        let banner = "serve: ingest on 127.0.0.1:40001, query on 127.0.0.1:40002, \
                      admin on 127.0.0.1:40003, 1140 nodes / 4 shards\n";
        assert_eq!(
            banner_addr(banner, "ingest on ").unwrap(),
            "127.0.0.1:40001".parse().unwrap()
        );
        assert_eq!(
            banner_addr(banner, "query on ").unwrap(),
            "127.0.0.1:40002".parse().unwrap()
        );
        assert!(banner_addr("serve: starting", "ingest on ").is_err());
    }
}
