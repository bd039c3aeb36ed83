//! Property-based tests for the adaptive distance filter.

use mobigrid_adf::{
    AdaptiveDistanceFilter, AdfConfig, DistanceFilter, EstimatorKind, FilterPolicy,
    FilterReference, GridBroker, LocationRecord, MobileGridSim, MobileNode, MobilityClassifier,
    RegionTally, RuntimeOptions, SimBuilder,
};
use mobigrid_campus::{RegionId, RegionKind};
use std::collections::VecDeque;

use mobigrid_geo::{Heading, Point, Polyline, Vec2};
use mobigrid_mobility::{LoopMode, MobilityPattern, NodeType, PathFollower, StopModel};
use mobigrid_telemetry::ApplyOutcome;
use mobigrid_wireless::{IngestRecord, LocationUpdate, MnId};
use proptest::prelude::*;

fn trajectory() -> impl Strategy<Value = Vec<Point>> {
    // Random walks with bounded per-step displacement.
    prop::collection::vec((-3.0..3.0f64, -3.0..3.0f64), 2..120).prop_map(|steps| {
        let mut pos = Point::ORIGIN;
        let mut out = vec![pos];
        for (dx, dy) in steps {
            pos += Vec2::new(dx, dy);
            out.push(pos);
        }
        out
    })
}

/// The classifier with an eager window, as it stood before headings were
/// derived lazily: each step's heading is computed on observation and
/// stored next to its speed. The oracle for
/// `lazy_heading_classifier_matches_the_eager_window`.
struct EagerClassifier {
    window: usize,
    v_walk: f64,
    samples: VecDeque<(f64, Option<Heading>)>,
    last: Option<(f64, Point)>,
}

impl EagerClassifier {
    fn new(window: usize, v_walk: f64) -> Self {
        EagerClassifier {
            window,
            v_walk,
            samples: VecDeque::new(),
            last: None,
        }
    }

    fn observe(&mut self, time_s: f64, position: Point) {
        if let Some((t0, p0)) = self.last {
            let dt = time_s - t0;
            if dt <= 0.0 {
                return;
            }
            let delta = position - p0;
            if self.samples.len() == self.window {
                self.samples.pop_front();
            }
            self.samples.push_back((delta.norm() / dt, delta.heading()));
        }
        self.last = Some((time_s, position));
    }

    fn mean_speed(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.0).sum::<f64>() / self.samples.len() as f64
    }

    fn last_heading(&self) -> Option<Heading> {
        self.samples.iter().rev().find_map(|s| s.1)
    }

    fn change_fraction(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let mean = self.mean_speed().max(1e-9);
        let mut changes = 0usize;
        for (p, s) in self.samples.iter().zip(self.samples.iter().skip(1)) {
            let speed_jump =
                (s.0 - p.0).abs() > MobilityClassifier::DEFAULT_SPEED_CHANGE_FRACTION * mean;
            let turn = match (p.1, s.1) {
                (Some(a), Some(b)) => a.angle_to(b) > MobilityClassifier::DEFAULT_DIRECTION_CHANGE,
                (None, Some(_)) | (Some(_), None) => true,
                (None, None) => false,
            };
            if speed_jump || turn {
                changes += 1;
            }
        }
        changes as f64 / (self.samples.len() - 1) as f64
    }

    fn classify(&self) -> MobilityPattern {
        let v = self.mean_speed();
        if v <= MobilityClassifier::DEFAULT_STOP_SPEED {
            MobilityPattern::Stop
        } else if v > self.v_walk
            || self.change_fraction() <= MobilityClassifier::DEFAULT_FREQUENT_FRACTION
        {
            MobilityPattern::Linear
        } else {
            MobilityPattern::Random
        }
    }
}

proptest! {
    /// Deriving headings lazily from the stored displacement gives the
    /// same classification, change fraction, last heading and mean speed,
    /// bit for bit, as the eager window — on random walks mixing moves,
    /// stationary steps, repeated timestamps and uneven time steps.
    #[test]
    fn lazy_heading_classifier_matches_the_eager_window(
        steps in prop::collection::vec((0u8..5, -3.0..3.0f64, -3.0..3.0f64), 1..90),
        window in 2usize..12,
        v_walk in 0.5..3.0f64,
    ) {
        let cfg = AdfConfig {
            classifier_window: window,
            v_walk,
            ..AdfConfig::default()
        };
        let mut lazy = MobilityClassifier::new(&cfg);
        let mut eager = EagerClassifier::new(window, v_walk);
        let mut t = 0.0;
        let mut pos = Point::new(10.0, -4.0);
        for (i, (kind, dx, dy)) in steps.into_iter().enumerate() {
            match kind {
                // Stand still for a tick.
                0 => t += 1.0,
                // Re-report at the same instant (ignored by both).
                1 => pos += Vec2::new(dx, dy),
                // An uneven time step.
                2 => {
                    t += 0.25 + dx.abs();
                    pos += Vec2::new(dx, dy);
                }
                _ => {
                    t += 1.0;
                    pos += Vec2::new(dx, dy);
                }
            }
            lazy.observe(t, pos);
            eager.observe(t, pos);
            prop_assert_eq!(lazy.classify(&cfg), eager.classify(), "step {}", i);
            prop_assert_eq!(
                lazy.change_fraction(&cfg).to_bits(),
                eager.change_fraction().to_bits(),
                "step {}", i
            );
            prop_assert_eq!(
                lazy.last_heading().map(|h| h.radians().to_bits()),
                eager.last_heading().map(|h| h.radians().to_bits()),
                "step {}", i
            );
            prop_assert_eq!(
                lazy.mean_speed().to_bits(),
                eager.mean_speed().to_bits(),
                "step {}", i
            );
        }
    }

    /// Raising the DTH never increases the number of transmitted updates
    /// under the paper's per-observation semantics, where each decision
    /// depends only on the current step length.
    ///
    /// (This is deliberately *not* asserted for the dead-band variant:
    /// its anchor path depends on the threshold, so a larger DTH can keep
    /// an older anchor from which a later displacement happens to exceed
    /// it — dead-band filters are only monotone on average, not per
    /// trajectory. Proptest found the counterexample.)
    #[test]
    fn filter_is_monotone_in_dth_under_paper_semantics(
        traj in trajectory(),
        dth_lo in 0.0..3.0f64,
        extra in 0.1..5.0f64,
    ) {
        let reference = FilterReference::PreviousObservation;
        let mut small = DistanceFilter::with_reference(dth_lo, reference);
        let mut large = DistanceFilter::with_reference(dth_lo + extra, reference);
        for p in &traj {
            small.observe(*p);
            large.observe(*p);
        }
        prop_assert!(
            large.sent_count() <= small.sent_count(),
            "dth {dth_lo}+{extra} sent more"
        );
    }

    /// Counts always conserve: sent + filtered = observations.
    #[test]
    fn filter_counts_conserve(traj in trajectory(), dth in 0.0..5.0f64) {
        let mut f = DistanceFilter::new(dth);
        for p in &traj {
            f.observe(*p);
        }
        prop_assert_eq!(f.sent_count() + f.filtered_count(), traj.len() as u64);
        prop_assert!(f.sent_count() >= 1, "first update is always sent");
    }

    /// Under dead-band semantics the broker's stale error is bounded by the
    /// DTH: every observation lies within DTH of the last transmitted point.
    #[test]
    fn dead_band_bounds_stale_error(traj in trajectory(), dth in 0.5..5.0f64) {
        let mut f = DistanceFilter::with_reference(dth, FilterReference::LastTransmitted);
        for p in &traj {
            f.observe(*p);
            let anchor = f.last_sent().expect("first observation sent");
            prop_assert!(anchor.distance_to(*p) < dth + 1e-9);
        }
    }

    /// The classifier never reports movement for a motionless node and
    /// never reports Stop for a node moving faster than walking pace.
    #[test]
    fn classifier_speed_extremes(speed in 2.5..15.0f64, steps in 5usize..40) {
        let cfg = AdfConfig::default();
        let mut moving = MobilityClassifier::new(&cfg);
        let mut still = MobilityClassifier::new(&cfg);
        for t in 0..steps {
            let t_f = t as f64;
            moving.observe(t_f, Point::new(speed * t_f, 0.0));
            still.observe(t_f, Point::new(5.0, 5.0));
        }
        prop_assert_eq!(moving.classify(&cfg), MobilityPattern::Linear);
        prop_assert_eq!(still.classify(&cfg), MobilityPattern::Stop);
    }

    /// Classifier change fraction is a valid fraction.
    #[test]
    fn classifier_change_fraction_is_bounded(traj in trajectory()) {
        let cfg = AdfConfig {
            classifier_window: 12,
            ..AdfConfig::default()
        };
        let mut c = MobilityClassifier::new(&cfg);
        for (t, p) in traj.iter().enumerate() {
            c.observe(t as f64, *p);
        }
        let f = c.change_fraction(&cfg);
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert!(c.mean_speed() >= 0.0);
    }

    /// The ADF policy returns exactly one decision per observation and its
    /// DTHs are always non-negative and finite.
    #[test]
    fn adf_decisions_align_with_observations(
        node_count in 1usize..12,
        ticks in 1u64..60,
        seed in any::<u64>(),
    ) {
        let mut adf = AdaptiveDistanceFilter::new(AdfConfig::new(1.0)).expect("valid");
        // Deterministic pseudo-random trajectories from the seed.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 250.0 - 2.0
        };
        let mut positions: Vec<Point> = (0..node_count).map(|i| Point::new(i as f64 * 50.0, 0.0)).collect();
        for t in 1..=ticks {
            let obs: Vec<(MnId, Point)> = positions
                .iter_mut()
                .enumerate()
                .map(|(i, p)| {
                    *p += Vec2::new(next(), next());
                    (MnId::new(i as u32), *p)
                })
                .collect();
            let decisions = adf.decide_tick(t as f64, &obs);
            prop_assert_eq!(decisions.len(), obs.len());
            for (id, _) in &obs {
                let dth = adf
                    .probe(*id)
                    .and_then(|p| p.dth)
                    .expect("observed node has a threshold");
                prop_assert!(dth.is_finite() && dth >= 0.0);
            }
        }
    }

    /// Two identical tick streams produce identical ADF decisions —
    /// the policy is deterministic.
    #[test]
    fn adf_is_deterministic(ticks in 1u64..40, seed in any::<u64>()) {
        let run = |seed: u64| {
            let mut adf = AdaptiveDistanceFilter::new(AdfConfig::new(1.0)).expect("valid");
            let mut sent = Vec::new();
            let mut x = (seed % 97) as f64;
            for t in 1..=ticks {
                x += 1.5 + (t.wrapping_mul(seed) % 3) as f64 * 0.1;
                let obs = [(MnId::new(0), Point::new(x, 0.0))];
                sent.push(adf.decide_tick(t as f64, &obs)[0].is_sent());
            }
            sent
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// `RegionTally::merge` is exact u64 addition, so merging per-shard
    /// tallies in any grouping reproduces the sequential tally verbatim.
    /// This is the algebra the sharded tick reduction relies on.
    #[test]
    fn region_tally_merge_matches_sequential_records(
        records in prop::collection::vec((any::<bool>(), any::<bool>()), 0..120),
        split in 0usize..120,
    ) {
        let kind_of = |road: bool| if road { RegionKind::Road } else { RegionKind::Building };
        let mut whole = RegionTally::new();
        for (road, sent) in &records {
            whole.record(kind_of(*road), *sent);
        }
        let cut = split.min(records.len());
        let mut left = RegionTally::new();
        let mut right = RegionTally::new();
        for (road, sent) in &records[..cut] {
            left.record(kind_of(*road), *sent);
        }
        for (road, sent) in &records[cut..] {
            right.record(kind_of(*road), *sent);
        }
        let mut merged = left;
        merged.merge(&right);
        prop_assert_eq!(merged, whole);
    }

    /// Merging is associative and commutative bit-for-bit: the tally holds
    /// only integer counters, so shard order cannot change the result.
    #[test]
    fn region_tally_merge_is_associative_and_commutative(
        a in prop::collection::vec((any::<bool>(), any::<bool>()), 0..40),
        b in prop::collection::vec((any::<bool>(), any::<bool>()), 0..40),
        c in prop::collection::vec((any::<bool>(), any::<bool>()), 0..40),
    ) {
        let tally = |records: &[(bool, bool)]| {
            let mut t = RegionTally::new();
            for (road, sent) in records {
                t.record(
                    if *road { RegionKind::Road } else { RegionKind::Building },
                    *sent,
                );
            }
            t
        };
        let (ta, tb, tc) = (tally(&a), tally(&b), tally(&c));

        let mut left = ta;
        left.merge(&tb);
        left.merge(&tc);

        let mut right_inner = tb;
        right_inner.merge(&tc);
        let mut right = ta;
        right.merge(&right_inner);
        prop_assert_eq!(left, right);

        let mut ab = ta;
        ab.merge(&tb);
        let mut ba = tb;
        ba.merge(&ta);
        prop_assert_eq!(ab, ba);
    }
}

/// Builds a deterministic synthetic population: a mix of ping-pong walkers
/// and parked nodes, fully determined by `(node_count, seed)`.
fn synthetic_population(node_count: usize, seed: u64) -> Vec<MobileNode> {
    (0..node_count as u32)
        .map(|i| {
            let rng_seed = seed ^ u64::from(i);
            if i % 3 == 2 {
                MobileNode::new(
                    MnId::new(i),
                    RegionId::from_index(0),
                    RegionKind::Building,
                    NodeType::Human,
                    MobilityPattern::Stop,
                    StopModel::new(Point::new(500.0, f64::from(i) * 7.0)),
                    rng_seed,
                )
            } else {
                let y = f64::from(i) * 9.0;
                let path = Polyline::new(vec![Point::new(0.0, y), Point::new(800.0, y)])
                    .expect("two distinct points");
                let speed = 0.5 + f64::from((i.wrapping_mul(7)) % 6);
                MobileNode::new(
                    MnId::new(i),
                    RegionId::from_index(6),
                    RegionKind::Road,
                    NodeType::Human,
                    MobilityPattern::Linear,
                    PathFollower::new(path, speed, LoopMode::PingPong),
                    rng_seed,
                )
            }
        })
        .collect()
}

fn synthetic_sim(node_count: usize, seed: u64, threads: usize) -> MobileGridSim {
    SimBuilder::new()
        .nodes(synthetic_population(node_count, seed))
        .policy(AdaptiveDistanceFilter::new(AdfConfig::new(1.0)).expect("valid"))
        .runtime(RuntimeOptions {
            threads,
            ..RuntimeOptions::default()
        })
        .build()
        .expect("valid simulation")
}

proptest! {
    /// Reusing the tick scratch leaves no residue between ticks or between
    /// `run` calls: stepping one simulation `a + b` ticks in two bursts
    /// produces the same per-tick statistics stream as one fresh build
    /// stepped `a + b` ticks straight through. Node counts deliberately
    /// straddle multiples of the 64-node shard size, so ragged final
    /// shards reuse the same buffers as full ones.
    #[test]
    fn scratch_reuse_is_invisible_in_tick_stats(
        node_count in 1usize..150,
        seed in any::<u64>(),
        a in 1u64..30,
        b in 1u64..30,
    ) {
        let mut fresh = synthetic_sim(node_count, seed, 1);
        let straight = fresh.run(a + b);

        let mut bursty = synthetic_sim(node_count, seed, 1);
        let mut stream = bursty.run(a);
        stream.extend(bursty.run(b));

        prop_assert_eq!(straight, stream);
    }

    /// The thread count is invisible in the results for arbitrary
    /// populations, including those not divisible by the shard size: the
    /// scratch buffers are carved into the same per-shard slices however
    /// many workers execute them.
    #[test]
    fn thread_count_is_invisible_for_arbitrary_populations(
        node_count in 1usize..150,
        seed in any::<u64>(),
        ticks in 1u64..40,
    ) {
        let serial = synthetic_sim(node_count, seed, 1).run(ticks);
        let threaded = synthetic_sim(node_count, seed, 3).run(ticks);
        prop_assert_eq!(serial, threaded);
    }
}

/// What a without-LE broker holds for one node, modelled directly.
#[derive(Clone, Copy, Default)]
struct RawSlot {
    /// The last accepted update's time, seq and position.
    last_rx: Option<(f64, u32, Point)>,
    record: Option<LocationRecord>,
    staleness: u32,
}

proptest! {
    /// The without-LE broker runs no estimator: whatever mix of updates
    /// (exact duplicates and frames older than the last receipt included),
    /// filtered and lost ops and home anchors (set before or after first
    /// contact) reaches it, each record it holds is at the position of the
    /// node's last accepted update, its outcomes, staleness counters and
    /// lifetime counters match a model of that rule, and every node's
    /// estimate is static.
    #[test]
    fn without_le_broker_holds_the_last_accepted_update(
        ops in prop::collection::vec(
            (0u8..8, 0u32..4, 0u8..3, -50.0..50.0f64, -50.0..50.0f64),
            1..120,
        ),
    ) {
        const NODES: u32 = 4;
        let mut broker = GridBroker::new(EstimatorKind::WithoutLe).unwrap();
        broker.ensure_nodes(NODES as usize);
        let mut model = [RawSlot::default(); NODES as usize];
        let (mut received, mut estimated, mut lost, mut rejected) = (0u64, 0u64, 0u64, 0u64);
        let mut last_update = None;
        for (step, &(kind, node, back, x, y)) in ops.iter().enumerate() {
            let (t, id) = (step as f64, MnId::new(node));
            let op = match kind {
                0 => {
                    broker.set_home_anchor(id, Point::new(x, y));
                    None
                }
                // `back` > 0 sends a frame from an earlier tick, which is
                // stale when the node has heard something newer since.
                1..=3 => Some(IngestRecord::Update(LocationUpdate::new(
                    id,
                    t - f64::from(back),
                    Point::new(x, y),
                    step as u32,
                ))),
                // The previous update frame again, byte for byte.
                4 => last_update.map(IngestRecord::Update),
                5 | 6 => Some(IngestRecord::Filtered { node: id, time_s: t }),
                _ => Some(IngestRecord::Lost { node: id, time_s: t }),
            };
            if let Some(op) = op {
                let slot = &mut model[op.node().expect("a node op").index()];
                let expected = match op {
                    IngestRecord::Update(lu) => {
                        last_update = Some(lu);
                        match slot.last_rx {
                            Some((time_s, seq, _)) if lu.time_s == time_s && lu.seq == seq => {
                                rejected += 1;
                                ApplyOutcome::Duplicate
                            }
                            Some((time_s, _, _)) if lu.time_s < time_s => {
                                rejected += 1;
                                ApplyOutcome::Stale
                            }
                            _ => {
                                slot.last_rx = Some((lu.time_s, lu.seq, lu.position));
                                slot.record = Some(LocationRecord {
                                    position: lu.position,
                                    time_s: lu.time_s,
                                    estimated: false,
                                });
                                slot.staleness = 0;
                                received += 1;
                                ApplyOutcome::Accepted
                            }
                        }
                    }
                    IngestRecord::Filtered { time_s, .. } | IngestRecord::Lost { time_s, .. } => {
                        let is_lost = matches!(op, IngestRecord::Lost { .. });
                        if is_lost {
                            slot.staleness += 1;
                            lost += 1;
                        }
                        match slot.last_rx {
                            None => ApplyOutcome::NoRecord,
                            Some((_, _, position)) => {
                                slot.record = Some(LocationRecord {
                                    position,
                                    time_s,
                                    estimated: true,
                                });
                                estimated += 1;
                                if is_lost {
                                    ApplyOutcome::Degraded
                                } else {
                                    ApplyOutcome::Estimated
                                }
                            }
                        }
                    }
                    _ => unreachable!("the generator makes node ops only"),
                };
                let info = broker.apply(&op).expect("a node op is a broker op");
                prop_assert_eq!(info.outcome, expected);
                prop_assert_eq!(info.staleness, slot.staleness);
            }
            for (i, slot) in model.iter().enumerate() {
                let id = MnId::new(i as u32);
                prop_assert_eq!(broker.location(id), slot.record);
                prop_assert_eq!(
                    broker.location(id).map(|r| r.position),
                    slot.last_rx.map(|(_, _, position)| position)
                );
                prop_assert_eq!(broker.staleness(id), slot.staleness);
            }
            prop_assert_eq!(
                (broker.received_count(), broker.estimated_count()),
                (received, estimated)
            );
            prop_assert_eq!((broker.lost_count(), broker.rejected_count()), (lost, rejected));
            prop_assert_eq!(
                broker.node_count(),
                model.iter().filter(|s| s.record.is_some()).count()
            );
            let shard = broker.shard_views_iter(NODES as usize).next().expect("one shard");
            for i in 0..NODES {
                prop_assert!(shard.estimator_is_static(MnId::new(i)));
            }
        }
    }
}

/// A small xorshift stream for the doze schedules (proptest supplies the
/// seed and the shape; the stream fills in the per-tick details).
struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// `true` with probability `per_mille / 1000`.
    fn chance(&mut self, per_mille: u64) -> bool {
        self.next() % 1000 < per_mille
    }
}

/// Asserts that two ADFs report the same per-node view — the probe
/// (class, cluster, DTH, displacement) — bit for bit.
fn assert_same_view(
    dozing: &AdaptiveDistanceFilter,
    eager: &AdaptiveDistanceFilter,
    nodes: usize,
    tick: u64,
) {
    for i in 0..nodes {
        let id = MnId::new(i as u32);
        let (d, e) = (dozing.probe(id), eager.probe(id));
        assert_eq!(
            d.map(|p| (p.pattern, p.cluster)),
            e.map(|p| (p.pattern, p.cluster)),
            "class/cluster of node {i} at tick {tick}"
        );
        assert_eq!(
            d.map(|p| (p.dth.map(f64::to_bits), p.displacement.map(f64::to_bits))),
            e.map(|p| (p.dth.map(f64::to_bits), p.displacement.map(f64::to_bits))),
            "DTH/displacement of node {i} at tick {tick}"
        );
    }
}

/// One run of [`doze_matches_the_eager_fast_path`]: `ticks` random ticks
/// over `nodes` nodes, then a walking tail.
fn doze_case(nodes: usize, ticks: u64, recluster_interval: u64, seed: u64) {
    let cfg = AdfConfig {
        recluster_interval,
        ..AdfConfig::new(1.0)
    };
    let mut dozing = AdaptiveDistanceFilter::new(cfg).expect("valid");
    let mut eager = AdaptiveDistanceFilter::new(cfg).expect("valid");
    let mut rng = Xorshift(seed | 1);
    let mut pos: Vec<Point> = (0..nodes)
        .map(|i| Point::new(i as f64 * 40.0, 5.0))
        .collect();
    // Per node: ticks left in the current segment, and whether it walks.
    let mut segment: Vec<(u64, bool)> = vec![(0, false); nodes];
    let (mut d_out, mut e_out) = (Vec::new(), Vec::new());
    let mut time_s = 0.0;
    for tick in 1..=ticks {
        if !rng.chance(20) {
            time_s += 1.0;
        }
        let mut obs = Vec::with_capacity(nodes + 1);
        let mut hint = Vec::with_capacity(nodes + 1);
        for (i, p) in pos.iter_mut().enumerate() {
            let (left, walking) = &mut segment[i];
            if *left == 0 {
                *walking = rng.chance(400);
                *left = 1 + rng.next() % if *walking { 25 } else { 90 };
            }
            *left -= 1;
            if *walking {
                let speed = 0.5 + (i % 4) as f64 * 1.25;
                *p = Point::new(p.x + speed, p.y + (rng.next() % 3) as f64 * 0.1);
            }
            // A truthful hint covers a parked node; a wrong one a walker.
            let hinted = if *walking {
                rng.chance(100)
            } else {
                !rng.chance(50)
            };
            if rng.chance(15) {
                continue; // this node is left out of the tick
            }
            obs.push((MnId::new(i as u32), *p));
            hint.push(hinted);
            if rng.chance(10) {
                obs.push((MnId::new(i as u32), *p)); // and this one repeated
                hint.push(true);
            }
        }
        eager.process_tick(time_s, &obs, &mut e_out);
        if rng.chance(40) {
            dozing.process_tick(time_s, &obs, &mut d_out);
        } else {
            dozing.process_tick_sparse(time_s, &obs, &hint, &mut d_out);
        }
        assert_eq!(d_out, e_out, "decisions diverged at tick {tick}");
        assert_same_view(&dozing, &eager, nodes, tick);
    }
    // Walking tail: everyone moves, hinted or not, past a reclustering.
    for k in 0..(2 * recluster_interval + 12) {
        time_s += 1.0;
        let obs: Vec<(MnId, Point)> = pos
            .iter_mut()
            .enumerate()
            .map(|(i, p)| {
                *p = Point::new(p.x + 0.4 + i as f64 * 0.9, p.y);
                (MnId::new(i as u32), *p)
            })
            .collect();
        let hint = vec![k % 3 == 0; nodes];
        eager.process_tick(time_s, &obs, &mut e_out);
        dozing.process_tick_sparse(time_s, &obs, &hint, &mut d_out);
        assert_eq!(d_out, e_out, "decisions diverged in the tail, step {k}");
        assert_same_view(&dozing, &eager, nodes, ticks + k);
    }
    for i in 0..nodes {
        let id = MnId::new(i as u32);
        assert_eq!(dozing.pattern_of(id), eager.pattern_of(id));
        assert_eq!(dozing.cluster_of(id), eager.cluster_of(id));
    }
}

/// One run of the block half of [`doze_matches_the_eager_fast_path`]:
/// `blocks` 64-node blocks of parked nodes, then a ragged tail of
/// walkers. Hints follow the contract a block path trusts (a slot is
/// hinted only when it repeats the previous call's, node id included),
/// except in the ragged tail, where they are random. So whole blocks doze
/// on their block clock, and then break: a single node hops out of one,
/// a node left out of a tick shifts the slots after it, a node is
/// observed twice, the time stalls, or the tick reaches the dozing twin
/// dense.
fn doze_block_case(blocks: usize, ticks: u64, recluster_interval: u64, seed: u64) {
    const BLOCK: usize = 64;
    let cfg = AdfConfig {
        recluster_interval,
        ..AdfConfig::new(1.0)
    };
    let mut dozing = AdaptiveDistanceFilter::new(cfg).expect("valid");
    let mut eager = AdaptiveDistanceFilter::new(cfg).expect("valid");
    let mut rng = Xorshift(seed | 1);
    let parked = blocks * BLOCK;
    let nodes = parked + 5;
    let mut pos: Vec<Point> = (0..nodes)
        .map(|i| Point::new(i as f64 * 40.0, 5.0))
        .collect();
    let (mut d_out, mut e_out) = (Vec::new(), Vec::new());
    let mut prev: Vec<(MnId, Point)> = Vec::new();
    let mut time_s = 0.0;
    for tick in 1..=ticks {
        if !rng.chance(20) {
            time_s += 1.0;
        }
        // The walkers move every tick; one parked node hops now and then.
        for (i, p) in pos.iter_mut().enumerate().skip(parked) {
            *p = Point::new(p.x + 0.5 + (i % 4) as f64, p.y);
        }
        if rng.chance(40) {
            let k = rng.next() as usize % parked;
            pos[k] = Point::new(pos[k].x + 0.7, pos[k].y);
        }
        let mut obs: Vec<(MnId, Point)> = pos
            .iter()
            .enumerate()
            .map(|(i, p)| (MnId::new(i as u32), *p))
            .collect();
        if rng.chance(30) {
            obs.remove(rng.next() as usize % nodes);
        }
        if rng.chance(30) {
            let k = rng.next() as usize % obs.len();
            obs.push(obs[k]);
        }
        let hint: Vec<bool> = obs
            .iter()
            .enumerate()
            .map(|(i, &(id, p))| {
                if i >= parked {
                    rng.chance(500)
                } else {
                    prev.get(i).is_some_and(|&(pid, pp)| {
                        pid == id
                            && (pp.x.to_bits(), pp.y.to_bits()) == (p.x.to_bits(), p.y.to_bits())
                    })
                }
            })
            .collect();
        eager.process_tick(time_s, &obs, &mut e_out);
        if rng.chance(25) {
            dozing.process_tick(time_s, &obs, &mut d_out);
        } else {
            dozing.process_tick_sparse(time_s, &obs, &hint, &mut d_out);
        }
        assert_eq!(d_out, e_out, "decisions diverged at tick {tick}");
        assert_same_view(&dozing, &eager, nodes, tick);
        prev = obs;
    }
    assert!(dozing.dozed_blocks() > 0, "no block ever dozed whole");
    // Walking tail: everyone moves (so no slot is hinted), past a
    // reclustering; the block clocks catch up on the wakes.
    for k in 0..(2 * recluster_interval + 12) {
        time_s += 1.0;
        let obs: Vec<(MnId, Point)> = pos
            .iter_mut()
            .enumerate()
            .map(|(i, p)| {
                *p = Point::new(p.x + 0.4 + (i % 9) as f64 * 0.9, p.y);
                (MnId::new(i as u32), *p)
            })
            .collect();
        let hint = vec![false; obs.len()];
        eager.process_tick(time_s, &obs, &mut e_out);
        dozing.process_tick_sparse(time_s, &obs, &hint, &mut d_out);
        assert_eq!(d_out, e_out, "decisions diverged in the tail, step {k}");
        assert_same_view(&dozing, &eager, nodes, ticks + k);
    }
    for i in 0..nodes {
        let id = MnId::new(i as u32);
        assert_eq!(dozing.pattern_of(id), eager.pattern_of(id));
        assert_eq!(dozing.cluster_of(id), eager.cluster_of(id));
    }
}

proptest! {
    /// The ADF's deferred doze against the eager semantics it defers. The
    /// reference twin sees every tick through `process_tick`, which takes
    /// the full per-node path — bit-identical to the old eager stationary
    /// fast path by construction. The dozing twin sees the same ticks
    /// through `process_tick_sparse` with a random hint schedule:
    ///
    /// * nodes park for long stretches (up to 90 ticks) and walk between;
    /// * a truthful hint covers a parked node, but hints are also set
    ///   wrongly (the node moved while hinted) and dropped at random
    ///   (a node woken mid-window);
    /// * reclustering ticks fall inside the sleeps;
    /// * some ticks reach the dozing twin as a dense `process_tick`, some
    ///   leave a node out, repeat a node, or repeat the previous time.
    ///
    /// Per-tick decisions and the per-node view must match. A walking
    /// tail then wakes everyone and runs past a reclustering, so the
    /// classification and mean speed each classifier caught up to are
    /// compared through the pattern and the velocity-cluster DTH.
    ///
    /// A fifth run ([`doze_block_case`]) does the same over one or two
    /// whole 64-node blocks, so the block doze clock absorbs whole blocks
    /// and single nodes then wake out of them.
    #[test]
    fn doze_matches_the_eager_fast_path(
        nodes in 2usize..8,
        ticks in 40u64..240,
        recluster_interval in 5u64..45,
        seed in any::<u64>(),
    ) {
        for run in 0..4u64 {
            doze_case(nodes, ticks, recluster_interval, seed.rotate_left(16 * run as u32) ^ run);
        }
        doze_block_case(1 + (seed % 2) as usize, ticks, recluster_interval, seed);
    }
}
