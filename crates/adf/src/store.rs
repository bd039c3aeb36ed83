//! Sharded concurrent broker store — the node-state map behind the
//! `mobigrid-broker-serve` service.
//!
//! A [`GridBroker`] is a single-writer engine; a live service has many
//! ingest writers and many query readers. [`BrokerStore`] wraps a fleet of
//! brokers, one behind each [`std::sync::RwLock`], partitioning the node-id
//! space into contiguous ranges (the `LockedBTreeMap`/`SyncMap` sharded-map
//! idiom): ingest for node *n* takes exactly one shard's write lock, and a
//! position query for an unrelated node proceeds on another shard without
//! contending. Because every broker operation touches only its node's slot
//! and the lifetime counters are plain sums, sharded application of an
//! op stream is state-identical to sequential application into one broker —
//! [`BrokerStore::state_digest`] and [`GridBroker::state_digest`] are
//! directly comparable, and the serve parity tests compare them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockWriteGuard};

use mobigrid_geo::{Point, Rect};
use mobigrid_wireless::{IngestRecord, MnId};

use crate::broker::{
    ApplyInfo, BrokerDelta, EstimatorKind, GridBroker, LocationRecord, StateDigest,
};

/// Summed lifetime counters across every shard of a [`BrokerStore`] —
/// the service's `stats` query payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Updates received (accepted into the location DB).
    pub received: u64,
    /// Estimates performed for filtered/lost updates.
    pub estimated: u64,
    /// Expected updates that never arrived.
    pub lost: u64,
    /// Received frames rejected as duplicates or stale reorderings.
    pub rejected: u64,
    /// Nodes currently holding a live record.
    pub live_records: u64,
    /// Completed ticks observed (count of applied
    /// [`IngestRecord::TickEnd`] markers).
    pub ticks: u64,
    /// Number of shards the store partitions the id space into.
    pub shards: usize,
}

/// Aggregate staleness across the store — the service's
/// `staleness_report` query payload.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StalenessReport {
    /// Nodes holding a live record.
    pub live_records: u64,
    /// Nodes with a non-zero consecutive-loss staleness counter.
    pub stale_nodes: u64,
    /// The largest staleness counter observed.
    pub max_staleness: u32,
    /// Sum of every node's staleness counter (with
    /// [`StalenessReport::stale_nodes`] this gives the mean over stale
    /// nodes).
    pub total_staleness: u64,
}

/// A region census — the service's `census` query payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CensusReport {
    /// Live records whose believed position falls inside the region.
    pub inside: u64,
    /// How many of those positions are estimator output rather than a
    /// received update.
    pub estimated: u64,
}

/// A sharded, concurrently readable and writable fleet of [`GridBroker`]s
/// covering the node ids `0..capacity`.
///
/// Node index `i` lives in shard `i / span` where
/// `span = capacity.div_ceil(shards)`. Inside each shard, node ids are
/// rebased to shard-local indices so the dense slot vectors stay small and
/// contiguous. The capacity is fixed at construction: the store never
/// grows, so ids at or beyond it are refused (see
/// [`BrokerStore::apply_batch`]).
pub struct BrokerStore {
    shards: Vec<RwLock<GridBroker>>,
    span: usize,
    capacity: usize,
    ticks: AtomicU64,
}

impl std::fmt::Debug for BrokerStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrokerStore")
            .field("shards", &self.shards.len())
            .field("span", &self.span)
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl BrokerStore {
    /// Creates a store of `shards` brokers (each running `kind`) covering
    /// node ids `0..capacity`. `shards` is clamped to at least 1 and at
    /// most `capacity.max(1)` so every shard owns a non-empty range.
    ///
    /// # Errors
    ///
    /// Returns the estimator's parameter-validation message.
    pub fn new(kind: EstimatorKind, capacity: usize, shards: usize) -> Result<Self, String> {
        let shards = shards.clamp(1, capacity.max(1));
        let span = capacity.max(1).div_ceil(shards);
        let mut fleet = Vec::with_capacity(shards);
        for i in 0..shards {
            let base = i * span;
            let len = if i + 1 == shards {
                capacity.saturating_sub(base)
            } else {
                span
            };
            let mut broker = GridBroker::new(kind)?;
            broker.ensure_nodes(len);
            fleet.push(RwLock::new(broker));
        }
        Ok(BrokerStore {
            shards: fleet,
            span,
            capacity,
            ticks: AtomicU64::new(0),
        })
    }

    /// Which shard owns `node`, and the node's index inside that shard;
    /// `None` for an id at or beyond the capacity.
    fn route(&self, node: MnId) -> Option<(usize, usize)> {
        let index = node.index();
        (index < self.capacity).then(|| (index / self.span, index % self.span))
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The declared node capacity: valid ids are `0..capacity`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Registers `node`'s home anchor (see [`GridBroker::set_home_anchor`])
    /// on its owning shard.
    ///
    /// # Panics
    ///
    /// Panics if `node` is at or beyond the capacity, or if the shard
    /// lock is poisoned.
    pub fn set_home_anchor(&self, node: MnId, anchor: Point) {
        let (shard, local) = self
            .route(node)
            .expect("node id beyond the store's capacity");
        self.shards[shard]
            .write()
            .expect("shard lock poisoned")
            .set_home_anchor(MnId::new(local as u32), anchor);
    }

    /// Applies a batch of ingest records in order (see
    /// [`GridBroker::apply`]), holding each shard's write lock across runs
    /// of consecutive same-shard records (one lock acquisition per run
    /// instead of per record). [`IngestRecord::TickEnd`] only advances
    /// the tick counter.
    ///
    /// # Panics
    ///
    /// Panics if a record names a node at or beyond the capacity — check
    /// untrusted batches against [`BrokerStore::capacity`] first — or if
    /// a shard lock is poisoned.
    pub fn apply_batch(&self, ops: &[IngestRecord]) {
        self.apply_each(ops, |_| {});
    }

    /// [`BrokerStore::apply_batch`], additionally reporting what the
    /// broker did with each record: pushes one `Some(ApplyInfo)` per
    /// broker operation and one `None` per framing marker
    /// ([`IngestRecord::TickEnd`] / [`IngestRecord::BatchSpan`]) onto
    /// `infos`, in record order. The locking and the resulting store
    /// state are identical to the untraced path.
    ///
    /// # Panics
    ///
    /// As [`BrokerStore::apply_batch`].
    pub fn apply_batch_traced(&self, ops: &[IngestRecord], infos: &mut Vec<Option<ApplyInfo>>) {
        self.apply_each(ops, |info| infos.push(info));
    }

    /// The store's one routing loop: applies every record to its owning
    /// shard and hands each record's [`ApplyInfo`] to `each`.
    fn apply_each(&self, ops: &[IngestRecord], mut each: impl FnMut(Option<ApplyInfo>)) {
        let mut held: Option<(usize, RwLockWriteGuard<'_, GridBroker>)> = None;
        for op in ops {
            let Some(node) = op.node() else {
                if matches!(op, IngestRecord::TickEnd { .. }) {
                    self.ticks.fetch_add(1, Ordering::Relaxed);
                }
                each(None);
                continue;
            };
            let (shard, local) = self
                .route(node)
                .expect("node id beyond the store's capacity");
            if held.as_ref().map(|(s, _)| *s) != Some(shard) {
                // Release the previous shard before locking the next: a
                // writer never holds two shard locks, so concurrent
                // batches cannot deadlock on each other.
                drop(held.take());
                held = Some((
                    shard,
                    self.shards[shard].write().expect("shard lock poisoned"),
                ));
            }
            let (_, broker) = held.as_mut().expect("guard just ensured");
            each(broker.apply_at(local, op));
        }
    }

    /// Visits every shard under its read lock, in shard order, with the
    /// global id of the shard's first node; returns the lifetime counters
    /// summed across shards.
    fn fold_shards(&self, mut visit: impl FnMut(u64, &GridBroker)) -> BrokerDelta {
        let mut sum = BrokerDelta::default();
        for (i, shard) in self.shards.iter().enumerate() {
            let broker = shard.read().expect("shard lock poisoned");
            visit((i * self.span) as u64, &broker);
            sum.merge(broker.counters());
        }
        sum
    }

    /// Live-record count per shard, in shard order — the `/metrics`
    /// endpoint's shard-occupancy gauge source.
    ///
    /// # Panics
    ///
    /// Panics if a shard lock is poisoned.
    #[must_use]
    pub fn shard_live_records(&self) -> Vec<u64> {
        let mut live = Vec::with_capacity(self.shards.len());
        self.fold_shards(|_, broker| live.push(broker.node_count() as u64));
        live
    }

    /// The store's belief about `node` (a read lock on one shard); `None`
    /// also for an id beyond the capacity.
    ///
    /// # Panics
    ///
    /// Panics if the shard lock is poisoned.
    #[must_use]
    pub fn position(&self, node: MnId) -> Option<LocationRecord> {
        let (shard, local) = self.route(node)?;
        self.shards[shard]
            .read()
            .expect("shard lock poisoned")
            .location(MnId::new(local as u32))
    }

    /// `node`'s consecutive-loss staleness counter (zero for an id beyond
    /// the capacity).
    ///
    /// # Panics
    ///
    /// Panics if the shard lock is poisoned.
    #[must_use]
    pub fn staleness(&self, node: MnId) -> u32 {
        self.route(node).map_or(0, |(shard, local)| {
            self.shards[shard]
                .read()
                .expect("shard lock poisoned")
                .staleness(MnId::new(local as u32))
        })
    }

    /// Counts live records believed to be inside `region`, sweeping shards
    /// one read lock at a time (writers to other shards proceed).
    ///
    /// # Panics
    ///
    /// Panics if a shard lock is poisoned.
    #[must_use]
    pub fn census(&self, region: Rect) -> CensusReport {
        let mut report = CensusReport::default();
        self.fold_shards(|_, broker| {
            for (_, record, _) in broker.records() {
                if region.contains(record.position) {
                    report.inside += 1;
                    report.estimated += u64::from(record.estimated);
                }
            }
        });
        report
    }

    /// Aggregates staleness across every shard.
    ///
    /// # Panics
    ///
    /// Panics if a shard lock is poisoned.
    #[must_use]
    pub fn staleness_report(&self) -> StalenessReport {
        let mut report = StalenessReport::default();
        self.fold_shards(|_, broker| {
            for (_, _, staleness) in broker.records() {
                report.live_records += 1;
                if staleness > 0 {
                    report.stale_nodes += 1;
                    report.total_staleness += u64::from(staleness);
                    report.max_staleness = report.max_staleness.max(staleness);
                }
            }
        });
        report
    }

    /// Sums the lifetime counters across every shard.
    ///
    /// # Panics
    ///
    /// Panics if a shard lock is poisoned.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let sum = self.fold_shards(|_, _| {});
        StoreStats {
            received: sum.received,
            estimated: sum.estimated,
            lost: sum.lost,
            rejected: sum.rejected,
            live_records: sum.fresh_records,
            ticks: self.ticks.load(Ordering::Relaxed),
            shards: self.shards.len(),
        }
    }

    /// The same order-sensitive digest as [`GridBroker::state_digest`]:
    /// every live record folded under its global node id in global node
    /// order, then the counters summed across shards — so a store and a
    /// single broker that applied the same op stream digest identically.
    ///
    /// # Panics
    ///
    /// Panics if a shard lock is poisoned.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        let mut digest = StateDigest::new();
        let sum = self.fold_shards(|base, broker| {
            for (local, record, staleness) in broker.records() {
                digest.record(base + u64::from(local.raw()), &record, staleness);
            }
        });
        digest.counters(&sum);
        digest.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobigrid_wireless::LocationUpdate;

    fn lu(node: u32, t: f64, x: f64, y: f64, seq: u32) -> LocationUpdate {
        LocationUpdate::new(MnId::new(node), t, Point::new(x, y), seq)
    }

    fn brown() -> EstimatorKind {
        EstimatorKind::Brown { alpha: 0.5 }
    }

    /// A short mixed op stream over a handful of nodes.
    fn sample_ops(nodes: u32, ticks: u64) -> Vec<IngestRecord> {
        let mut ops = Vec::new();
        for tick in 1..=ticks {
            let t = tick as f64;
            for n in 0..nodes {
                ops.push(match (n + tick as u32) % 4 {
                    0 => IngestRecord::Update(lu(n, t, f64::from(n) + t, t * 0.5, tick as u32)),
                    1 => IngestRecord::Filtered {
                        node: MnId::new(n),
                        time_s: t,
                    },
                    2 => IngestRecord::Lost {
                        node: MnId::new(n),
                        time_s: t,
                    },
                    _ => IngestRecord::Update(lu(n, t, f64::from(n) - t, -t, tick as u32)),
                });
            }
            ops.push(IngestRecord::TickEnd { tick, time_s: t });
        }
        ops
    }

    #[test]
    fn sharded_apply_matches_a_single_broker() {
        let ops = sample_ops(23, 12);
        let mut single = GridBroker::new(brown()).unwrap();
        single.ensure_nodes(23);
        for op in &ops {
            single.apply(op);
        }
        for shards in [1, 2, 4, 7, 23] {
            let store = BrokerStore::new(brown(), 23, shards).unwrap();
            store.apply_batch(&ops);
            assert_eq!(
                store.state_digest(),
                single.state_digest(),
                "{shards}-shard store must match the single broker"
            );
            // Per-node reads agree with the reference broker too.
            for n in 0..23 {
                let id = MnId::new(n);
                assert_eq!(store.position(id), single.location(id));
                assert_eq!(store.staleness(id), single.staleness(id));
            }
            let stats = store.stats();
            assert_eq!(stats.received, single.received_count());
            assert_eq!(stats.rejected, single.rejected_count());
            assert_eq!(stats.ticks, 12);
        }
    }

    #[test]
    fn per_op_and_batched_apply_agree() {
        let ops = sample_ops(10, 6);
        let a = BrokerStore::new(brown(), 10, 3).unwrap();
        let b = BrokerStore::new(brown(), 10, 3).unwrap();
        a.apply_batch(&ops);
        for op in &ops {
            b.apply_batch(std::slice::from_ref(op));
        }
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn traced_apply_matches_untraced_and_reports_every_record() {
        let mut ops = sample_ops(10, 6);
        ops.insert(
            0,
            IngestRecord::BatchSpan {
                tick: 1,
                batch_seq: 0,
                sent_unix_us: 0,
                dt_s: 1.0,
            },
        );
        let plain = BrokerStore::new(brown(), 10, 3).unwrap();
        let traced = BrokerStore::new(brown(), 10, 3).unwrap();
        plain.apply_batch(&ops);
        let mut infos = Vec::new();
        traced.apply_batch_traced(&ops, &mut infos);
        assert_eq!(plain.state_digest(), traced.state_digest());
        assert_eq!(plain.stats(), traced.stats());
        assert_eq!(infos.len(), ops.len());
        for (op, info) in ops.iter().zip(&infos) {
            match op {
                IngestRecord::TickEnd { .. } | IngestRecord::BatchSpan { .. } => {
                    assert!(info.is_none(), "framing markers carry no ApplyInfo");
                }
                _ => assert!(info.is_some(), "broker ops report an ApplyInfo"),
            }
        }
    }

    #[test]
    fn shard_live_records_sums_to_stats() {
        let store = BrokerStore::new(brown(), 10, 3).unwrap();
        store.apply_batch(&sample_ops(10, 2));
        let per_shard = store.shard_live_records();
        assert_eq!(per_shard.len(), 3);
        assert_eq!(per_shard.iter().sum::<u64>(), store.stats().live_records);
    }

    #[test]
    fn ids_beyond_the_capacity_read_as_unknown() {
        let store = BrokerStore::new(brown(), 8, 4).unwrap();
        assert_eq!(store.capacity(), 8);
        store.apply_batch(&[IngestRecord::Update(lu(7, 1.0, 5.0, 5.0, 0))]);
        for id in [8, 100, u32::MAX] {
            assert_eq!(store.position(MnId::new(id)), None);
            assert_eq!(store.staleness(MnId::new(id)), 0);
        }
        assert!(store.position(MnId::new(7)).is_some());
    }

    #[test]
    #[should_panic(expected = "beyond the store's capacity")]
    fn applying_beyond_the_capacity_panics_instead_of_growing() {
        let store = BrokerStore::new(brown(), 8, 4).unwrap();
        store.apply_batch(&[IngestRecord::Lost {
            node: MnId::new(8),
            time_s: 1.0,
        }]);
    }

    #[test]
    fn census_and_staleness_reports_aggregate() {
        let store = BrokerStore::new(brown(), 6, 2).unwrap();
        store.apply_batch(&[
            IngestRecord::Update(lu(0, 1.0, 1.0, 1.0, 0)),
            IngestRecord::Update(lu(1, 1.0, 9.0, 9.0, 0)),
            IngestRecord::Lost {
                node: MnId::new(0),
                time_s: 2.0,
            },
        ]);
        let census = store.census(Rect::from_corners(
            Point::new(0.0, 0.0),
            Point::new(5.0, 5.0),
        ));
        // Node 0's believed position moved by the lost-update estimate but
        // stays near (1,1); node 1 sits outside the rect.
        assert_eq!(census.inside, 1);
        let staleness = store.staleness_report();
        assert_eq!(staleness.live_records, 2);
        assert_eq!(staleness.stale_nodes, 1);
        assert_eq!(staleness.max_staleness, 1);
    }

    #[test]
    fn empty_store_digest_matches_empty_broker() {
        let store = BrokerStore::new(brown(), 16, 4).unwrap();
        let mut broker = GridBroker::new(brown()).unwrap();
        broker.ensure_nodes(16);
        assert_eq!(store.state_digest(), broker.state_digest());
    }
}
