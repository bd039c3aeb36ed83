//! `sim_city`: the `city_1140` scenario under the dense driver, timed at 1
//! and 2 threads.
//!
//! The workload's operation is one 1-thread tick: `op_us_p50` is the
//! 10th percentile over the run's segments of each segment's median
//! tick; `lu_sent_pct` and `rmse_le_m` are taken over one segment's
//! ticks, which every segment repeats. The 2-thread tick is a diagnostic
//! of the untraced run and a metric of the traced one.
//!
//! The working set fits in cache, and movement, the ADF filter and
//! estimation each take a large share of the tick, as does the per-tick
//! thread spawning at 2 threads. Each segment builds both sims from the
//! seed and times the same ticks on each, so they must end in the same
//! state.
//!
//! The traced run replays every tick layer by layer from outside the
//! program — movement shards, the ADF policy, and two broker-store
//! replicas fed the tapped op stream — and checks the replay is
//! bit-faithful to the real sim.

use std::time::Instant;

use mobigrid_adf::{
    AdaptiveDistanceFilter, AdfConfig, BrokerStore, Decision, EstimatorKind, FilterPolicy,
    MobileGridSim, MobileNode, NodeColumns,
};
use mobigrid_experiments::scenarios;
use mobigrid_experiments::simconfig::SimConfig;
use mobigrid_geo::Point;
use mobigrid_sim::par::{shard_count, ShardPool};
use mobigrid_telemetry::MemoryRecorder;
use mobigrid_wireless::{IngestRecord, MnId};

use crate::procstat::{peak_rss_mb, Sched};
use crate::report::Report;
use crate::sims::{
    check_invariants, check_same_run, time_segment, Window, MIN_SEGMENTS, SEGMENT_TICKS,
};
use crate::stats::{fast_decile, median, us, Samples};
use crate::tracer::Tracer;
use crate::Opts;

/// The scenario this workload runs.
pub const SCENARIO: &str = "city_1140";

/// Ticks stepped before timing. Every node sends on its first few ticks,
/// until its filter has history; by this tick the traffic is steady.
pub const WARMUP_TICKS: u64 = 200;

/// The sim's fixed shard geometry (nodes per movement shard).
const SHARD_SIZE: usize = 64;

/// Tick length of a default [`SimConfig`], in seconds.
const DT: f64 = 1.0;

/// Empty parallel regions timed for `par.region_*`.
const REGION_SAMPLES: usize = 2000;

fn build(seed: u64, threads: usize) -> MobileGridSim {
    SimConfig::scenario(SCENARIO)
        .seed(seed)
        .threads(threads)
        .build()
        .expect("city_1140 is a valid built-in scenario")
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
    let (mut setups, mut p50_1, mut p50_2) = (Vec::new(), Vec::new(), Vec::new());
    let (mut all1, mut all2) = (Vec::new(), Vec::new());
    let mut first: Option<Window> = None;
    let mut rss_mb = None;
    let deadline = Instant::now() + opts.duration();
    while setups.len() < MIN_SEGMENTS || Instant::now() < deadline {
        let started = Instant::now();
        let mut one = build(opts.seed, 1);
        for _ in 0..WARMUP_TICKS {
            one.step();
        }
        setups.push(started.elapsed().as_secs_f64());
        // The 2-thread sim is set up untimed: like its tick, its warm-up
        // moves with host steal twice as much.
        let mut two = build(opts.seed, 2);
        for _ in 0..WARMUP_TICKS {
            two.step();
        }

        // The sims run one after the other, not interleaved, so the
        // 1-thread tick keeps its caches and its CPU between ticks.
        let (t1, w1) = time_segment(&mut one, SEGMENT_TICKS);
        let (t2, w2) = time_segment(&mut two, SEGMENT_TICKS);
        report.ok(2 * SEGMENT_TICKS);
        check_same_run(&mut report, (&one, &w1), (&two, &w2), "1 vs 2 threads");
        check_invariants(&mut report, &one, "1 thread");
        check_invariants(&mut report, &two, "2 threads");
        // Every segment replays the same ticks of the same seed.
        let reference = *first.get_or_insert(w1);
        report.check(reference.same_bits(&w1), || {
            format!("segment traffic differs from the first: {w1:?} vs {reference:?}")
        });
        p50_1.push(Samples::new(t1.clone()).median());
        p50_2.push(Samples::new(t2.clone()).median());
        all1.extend(t1);
        all2.extend(t2);
        // Read after a fixed amount of work, so that a faster host, which
        // runs more segments, does not read higher.
        if setups.len() == MIN_SEGMENTS {
            rss_mb = peak_rss_mb("self");
        }
    }
    let window = first.expect("at least one segment ran");

    let (t1, t2) = (Samples::new(all1), Samples::new(all2));
    report.metric("setup_s", fast_decile(&setups), "s");
    report.metric("peak_rss_mb", rss_mb.unwrap_or(f64::NAN), "MB");
    report.metric("op_us_p50", fast_decile(&p50_1), "us");
    report.metric("lu_sent_pct", window.sent_pct(), "%");
    report.metric("rmse_le_m", window.rmse_le_mean(), "m");
    // Not gated: it needs both vCPUs at once, so host steal moves it about
    // twice as much as the 1-thread tick (see README).
    report.diagnostic("tick_us_p50_2t", fast_decile(&p50_2), "us");
    report.diagnostic("setup_s.median", median(&setups), "s");
    report.diagnostic("segments", setups.len() as f64, "count");
    report.diagnostic("op_us_p50.median_segment", median(&p50_1), "us");
    report.diagnostic("ticks.samples", t1.len() as f64, "count");
    report.diagnostic("tick_us_p99", t1.p99(), "us");
    report.diagnostic("tick_us_p99_2t", t2.p99(), "us");
    report.diagnostic("tick_us_mean", t1.mean(), "us");
    report.diagnostic("tick_us_mean_2t", t2.mean(), "us");
    report.hygiene(&sched, (t1.len() + t2.len()) as u64, false);
    report
}

/// The tick replayed from outside the program, one public call per layer.
struct Replica {
    cols: NodeColumns,
    policy: AdaptiveDistanceFilter,
    le: BrokerStore,
    nole: BrokerStore,
    obs: Vec<(MnId, Point)>,
    decisions: Vec<Decision>,
    mismatches: u64,
}

impl Replica {
    fn new(nodes: Vec<MobileNode>) -> Self {
        let cols = NodeColumns::from_nodes(nodes);
        let n = cols.len();
        let le =
            BrokerStore::new(EstimatorKind::Brown { alpha: 0.5 }, n, 1).expect("valid estimator");
        let nole = BrokerStore::new(EstimatorKind::WithoutLe, n, 1).expect("valid estimator");
        for (i, anchor) in cols.home_anchors().iter().enumerate() {
            if let Some(p) = anchor {
                le.set_home_anchor(MnId::new(i as u32), *p);
                nole.set_home_anchor(MnId::new(i as u32), *p);
            }
        }
        Replica {
            cols,
            policy: AdaptiveDistanceFilter::new(AdfConfig::new(1.0)).expect("valid ADF config"),
            le,
            nole,
            obs: vec![(MnId::new(0), Point::new(0.0, 0.0)); n],
            decisions: Vec::with_capacity(n),
            mismatches: 0,
        }
    }

    /// Replays tick `tick` and compares it with `ops`, the real sim's
    /// tapped op stream for the same tick.
    fn tick(&mut self, tick: u64, ops: &[IngestRecord], tracer: &mut Tracer) {
        let time_s = tick as f64 * DT;
        let root = tracer.open("replay.tick", tick, None);
        let (cols, obs) = (&mut self.cols, &mut self.obs);
        tracer.time("mobility.advance", tick, Some(root), || {
            for (i, (shard, o)) in cols
                .movement_shards(SHARD_SIZE)
                .zip(obs.chunks_mut(SHARD_SIZE))
                .enumerate()
            {
                shard.advance(i * SHARD_SIZE, time_s, DT, o);
            }
        });
        let (policy, decisions) = (&mut self.policy, &mut self.decisions);
        tracer.time("policy.process_tick", tick, Some(root), || {
            policy.process_tick(time_s, obs, decisions);
        });
        self.mismatches += mismatches(obs, decisions, ops);
        let (le, nole) = (&self.le, &self.nole);
        tracer.time("broker.apply_le", tick, Some(root), || le.apply_batch(ops));
        tracer.time("broker.apply_nole", tick, Some(root), || {
            nole.apply_batch(ops)
        });
        tracer.close(root);
    }
}

/// Decisions of the replica that disagree with the tapped op stream: a
/// sent update must be an `Update` at the bit-identical position, a
/// suppressed one a `Filtered` record, in node order, then `TickEnd`.
fn mismatches(obs: &[(MnId, Point)], decisions: &[Decision], ops: &[IngestRecord]) -> u64 {
    if ops.len() != obs.len() + 1 || decisions.len() != obs.len() {
        return obs.len() as u64;
    }
    let agree = |(&(id, pos), d, op): (&(MnId, Point), &Decision, &IngestRecord)| match (d, op) {
        (Decision::Sent, IngestRecord::Update(lu)) => {
            lu.node == id
                && lu.position.x.to_bits() == pos.x.to_bits()
                && lu.position.y.to_bits() == pos.y.to_bits()
        }
        (Decision::Filtered, IngestRecord::Filtered { node, .. }) => *node == id,
        _ => false,
    };
    obs.iter()
        .zip(decisions)
        .zip(ops)
        .filter(|&((o, d), op)| !agree((o, d, op)))
        .count() as u64
}

fn traced(opts: &Opts) -> Report {
    let mut report = Report::default();
    let scenario = scenarios::find(SCENARIO).expect("city_1140 is a built-in scenario");
    let mut plain = build(opts.seed, 1);
    let mut plain2 = build(opts.seed, 2);
    let mut tapped = build(opts.seed, 1);
    let mut recorded = build(opts.seed, 1);
    let mut recorder = MemoryRecorder::new();
    let mut replica = Replica::new(scenario.population(opts.seed));
    let n = replica.cols.len();

    let mut ops = Vec::with_capacity(n + 1);
    let mut warmup_tracer = Tracer::new();
    for tick in 1..=WARMUP_TICKS {
        plain.step();
        plain2.step();
        ops.clear();
        tapped.step_tapped(&mut ops);
        replica.tick(tick, &ops, &mut warmup_tracer);
        recorded.step_recorded(&mut recorder);
    }
    drop(warmup_tracer);

    let sched = Sched::now();
    let mut tracer = Tracer::new();
    let (mut t_plain, mut t_plain2, mut t_rec) = (Vec::new(), Vec::new(), Vec::new());
    let mut w = [Window::default(); 4];
    let estimated_before = replica.le.stats().estimated;
    let deadline = Instant::now() + opts.duration();
    let mut tick = WARMUP_TICKS;
    while w[0].ticks < SEGMENT_TICKS || Instant::now() < deadline {
        tick += 1;
        let a = Instant::now();
        w[0].add(&plain.step());
        t_plain.push(us(a.elapsed()));
        let a = Instant::now();
        w[1].add(&plain2.step());
        t_plain2.push(us(a.elapsed()));
        ops.clear();
        let real = tracer.open("sim.tick", tick, None);
        let stats = tapped.step_tapped(&mut ops);
        tracer.close(real);
        w[2].add(&stats);
        replica.tick(tick, &ops, &mut tracer);
        let a = Instant::now();
        w[3].add(&recorded.step_recorded(&mut recorder));
        t_rec.push(us(a.elapsed()));
    }
    let ticks = w[0].ticks;
    report.ok(4 * ticks);

    report.check(replica.mismatches == 0, || {
        format!("layer replay: {} decision mismatches", replica.mismatches)
    });
    let (le, nole) = (replica.le.state_digest(), replica.nole.state_digest());
    let (sim_le, sim_nole) = crate::sims::digests(&tapped);
    report.check(le == sim_le, || {
        format!("layer replay: LE replica digest {le:016x} != sim {sim_le:016x}")
    });
    report.check(nole == sim_nole, || {
        format!("layer replay: no-LE replica digest {nole:016x} != sim {sim_nole:016x}")
    });
    check_same_run(
        &mut report,
        (&plain, &w[0]),
        (&plain2, &w[1]),
        "1 vs 2 threads",
    );
    check_same_run(
        &mut report,
        (&plain, &w[0]),
        (&tapped, &w[2]),
        "plain vs tapped",
    );
    check_same_run(
        &mut report,
        (&plain, &w[0]),
        (&recorded, &w[3]),
        "plain vs recorded",
    );
    for (sim, label) in [
        (&plain, "plain"),
        (&plain2, "2 threads"),
        (&tapped, "tapped"),
        (&recorded, "recorded"),
    ] {
        check_invariants(&mut report, sim, label);
    }

    let pool = ShardPool::new(2);
    let shards = shard_count(n, SHARD_SIZE);
    let region = Samples::new(
        (0..REGION_SAMPLES)
            .map(|_| {
                let a = Instant::now();
                pool.for_each(0..shards, |_, _| {});
                us(a.elapsed())
            })
            .collect(),
    );

    let plain_p50 = Samples::new(t_plain.clone()).median();
    let layers = [
        ("mobility.advance", "mobility.advance_us"),
        ("policy.process_tick", "policy.process_tick_us"),
        ("broker.apply_le", "broker.apply_le_us"),
        ("broker.apply_nole", "broker.apply_nole_us"),
    ];
    let mut attributed = 0.0;
    for (span, metric) in layers {
        let p50 = tracer.durations_us(span).median();
        attributed += p50;
        report.metric(metric, p50, "us");
    }
    report.metric(
        "policy.clusters",
        replica.policy.cluster_count() as f64,
        "count",
    );
    report.metric(
        "broker.estimated_per_tick",
        (replica.le.stats().estimated - estimated_before) as f64 / ticks as f64,
        "count",
    );
    report.metric("sim.unattributed_us", plain_p50 - attributed, "us");
    report.metric("par.region_us_p50_2t", region.median(), "us");
    report.metric("par.region_us_p99_2t", region.p99(), "us");
    report.metric("par.region.samples", region.len() as f64, "count");
    let rec_p50 = Samples::new(t_rec).median();
    report.metric("telemetry.recorded_tick_us", rec_p50, "us");
    report.metric(
        "telemetry.overhead_pct",
        (rec_p50 / plain_p50 - 1.0) * 100.0,
        "%",
    );
    let span_p50 = tracer.durations_us("sim.tick").median();
    report.metric("trace.tick_span_us_p50", span_p50, "us");
    report.metric(
        "trace.overhead_pct",
        (span_p50 / plain_p50 - 1.0) * 100.0,
        "%",
    );
    let (t1, t2) = (Samples::new(t_plain), Samples::new(t_plain2));
    report.metric("ticks.samples", t1.len() as f64, "count");
    report.metric("tick_us_p99", t1.p99(), "us");
    report.metric("tick_us_p50_2t", t2.median(), "us");
    report.metric("tick_us_p99_2t", t2.p99(), "us");
    report.metric("tick_us_mean", t1.mean(), "us");
    report.metric("tick_us_mean_2t", t2.mean(), "us");
    report.hygiene(&sched, 4 * ticks, true);
    opts.write_spans("sim_city", &tracer, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobigrid_wireless::LocationUpdate;

    #[test]
    fn mismatches_counts_every_disagreement_with_the_tapped_ops() {
        let p = Point::new(1.0, 2.0);
        let obs = [(MnId::new(0), p), (MnId::new(1), p)];
        let decisions = [Decision::Sent, Decision::Filtered];
        let update = IngestRecord::Update(LocationUpdate::new(MnId::new(0), 1.0, p, 0));
        let filtered = IngestRecord::Filtered {
            node: MnId::new(1),
            time_s: 1.0,
        };
        let end = IngestRecord::TickEnd {
            tick: 1,
            time_s: 1.0,
        };
        assert_eq!(mismatches(&obs, &decisions, &[update, filtered, end]), 0);
        let moved = IngestRecord::Update(LocationUpdate::new(
            MnId::new(0),
            1.0,
            Point::new(1.0, 2.000_000_1),
            0,
        ));
        assert_eq!(mismatches(&obs, &decisions, &[moved, filtered, end]), 1);
        assert_eq!(mismatches(&obs, &decisions, &[filtered, update, end]), 2);
        assert_eq!(mismatches(&obs, &decisions, &[update, filtered]), 2);
    }
}
