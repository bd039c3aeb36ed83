//! The paper's Figure-3 architecture, executed end-to-end on the mini HLA
//! RTI: a **mobile-node federate** publishes raw location updates, the
//! **ADF federate** reflects, filters and republishes the survivors, and the
//! **grid-broker federate** maintains the location DB — all three
//! time-regulating and time-constrained, advancing in 1 s lockstep.
//!
//! The filtering decisions are bit-identical to the in-process
//! [`MobileGridSim`](mobigrid_adf::MobileGridSim) pipeline (asserted by this
//! module's tests); what the federation adds is the paper's distribution
//! structure: every LU crosses the RTI as a timestamp-ordered attribute
//! reflection, and the broker's beliefs lag by the federation lookahead
//! exactly as they would over a real wire.

use std::collections::BTreeMap;

use mobigrid_adf::{AdaptiveDistanceFilter, AdfConfig, FilterPolicy, GridBroker};
use mobigrid_campus::Campus;
use mobigrid_geo::Point;
use mobigrid_hla::{Callback, FedTime, ObjectHandle, ObjectModel, Rti};
use mobigrid_sim::stats::Rmse;
use mobigrid_wireless::{IngestRecord, LocationUpdate, MnId};

use crate::config::ExperimentConfig;
use crate::workload;

/// Per-tick statistics from a federated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FederatedTick {
    /// Simulation (federation) time at the end of the tick, in seconds.
    pub time_s: f64,
    /// Raw updates the ADF federate reflected this tick.
    pub observed: u32,
    /// Updates the ADF federate forwarded to the broker this tick.
    pub sent: u32,
    /// Broker RMSE with the location estimator (beliefs lag by lookahead).
    pub rmse_with_le: f64,
    /// Broker RMSE without the estimator.
    pub rmse_without_le: f64,
}

/// The outcome of a federated evaluation run.
#[derive(Debug, Clone, PartialEq)]
pub struct FederatedResult {
    /// Per-tick statistics.
    pub ticks: Vec<FederatedTick>,
    /// Total TSO reflections delivered across the federation.
    pub total_reflections: u64,
}

impl FederatedResult {
    /// Total location updates forwarded to the broker.
    #[must_use]
    pub fn total_sent(&self) -> u64 {
        self.ticks.iter().map(|t| u64::from(t.sent)).sum()
    }

    /// Total raw updates observed by the ADF federate.
    #[must_use]
    pub fn total_observed(&self) -> u64 {
        self.ticks.iter().map(|t| u64::from(t.observed)).sum()
    }
}

/// Runs the ADF evaluation through the three-federate architecture.
///
/// # Panics
///
/// Panics on internal RTI protocol violations, which indicate a bug rather
/// than a user error (the federation is constructed entirely here).
#[must_use]
pub fn run_federated_adf(cfg: &ExperimentConfig, dth_factor: f64) -> FederatedResult {
    let lookahead = FedTime::from_secs_f64(0.5);

    // --- FOM: one object class per pipeline stage -------------------------
    let mut fom = ObjectModel::new();
    let raw_class = fom.add_object_class("RawLocation");
    let raw_attr = fom.add_attribute(raw_class, "lu").expect("fresh attribute");
    let fil_class = fom.add_object_class("FilteredLocation");
    let fil_attr = fom.add_attribute(fil_class, "lu").expect("fresh attribute");

    let rti = Rti::new();
    rti.create_federation("adf-eval", fom).expect("fresh name");
    let mn_fed = rti.join("adf-eval", "mn-federate").expect("exists");
    let adf_fed = rti.join("adf-eval", "adf-federate").expect("exists");
    let broker_fed = rti.join("adf-eval", "broker-federate").expect("exists");

    mn_fed.publish_object_class(raw_class).expect("declared");
    adf_fed
        .subscribe_object_class(raw_class, &[raw_attr])
        .expect("declared");
    adf_fed.publish_object_class(fil_class).expect("declared");
    broker_fed
        .subscribe_object_class(fil_class, &[fil_attr])
        .expect("declared");
    for f in [&mn_fed, &adf_fed, &broker_fed] {
        f.enable_time_regulation(lookahead).expect("first enable");
        f.enable_time_constrained().expect("first enable");
    }

    // --- World state behind the MN federate --------------------------------
    let campus = Campus::inha_like();
    let mut nodes = workload::populate(&campus, cfg.seed);

    // One raw object and one filtered object per node. The reverse maps let
    // the subscribing federates recover the node from the object handle.
    let mut raw_objects: Vec<ObjectHandle> = Vec::with_capacity(nodes.len());
    let mut fil_objects: Vec<ObjectHandle> = Vec::with_capacity(nodes.len());
    for _ in &nodes {
        raw_objects.push(mn_fed.register_object(raw_class).expect("published"));
        fil_objects.push(adf_fed.register_object(fil_class).expect("published"));
    }
    adf_fed.tick().expect("joined"); // drain discoveries
    broker_fed.tick().expect("joined");

    // --- ADF and broker federate state -------------------------------------
    let adf_cfg = AdfConfig {
        dth_factor,
        ..cfg.adf
    };
    let mut policy = AdaptiveDistanceFilter::new(adf_cfg).expect("validated configuration");
    // One broker serves both arms: the without-LE belief is each node's
    // last accepted receipt, which the broker keeps.
    let mut broker = GridBroker::new(cfg.estimator).expect("validated estimator");
    for node in &nodes {
        if let Some(anchor) = node.home_anchor() {
            broker.set_home_anchor(node.id(), anchor);
        }
    }

    let mut ticks = Vec::with_capacity(cfg.duration_ticks as usize);
    let mut total_reflections = 0u64;

    for step in 1..=cfg.duration_ticks {
        let now = FedTime::from_secs(step);
        let time_s = step as f64;

        // (1) MN federate: advance ground truth, publish one raw LU each.
        let mut truth: BTreeMap<MnId, Point> = BTreeMap::new();
        for (node, obj) in nodes.iter_mut().zip(&raw_objects) {
            let pos = node.step(1.0);
            truth.insert(node.id(), pos);
            let lu = LocationUpdate::new(node.id(), time_s, pos, step as u32);
            mn_fed
                .update_attributes(*obj, vec![(raw_attr, lu.encode().to_vec())], Some(now))
                .expect("owned object");
        }

        for f in [&mn_fed, &adf_fed, &broker_fed] {
            f.request_time_advance(now).expect("monotone lockstep");
        }

        // (2) ADF federate: gather this tick's reflections, filter as one
        // batch (the clustering is cross-node), forward the survivors.
        let mut observations: Vec<(MnId, Point)> = Vec::new();
        for cb in adf_fed.tick().expect("joined") {
            if let Callback::ReflectAttributes { values, .. } = cb {
                total_reflections += 1;
                let lu = LocationUpdate::decode(&values[0].1).expect("well-formed frame");
                observations.push((lu.node, lu.position));
            }
        }
        let decisions = policy.decide_tick(time_s, &observations);
        let mut sent = 0u32;
        for ((node, pos), decision) in observations.iter().zip(&decisions) {
            if decision.is_sent() {
                sent += 1;
                let lu = LocationUpdate::new(*node, time_s, *pos, step as u32);
                adf_fed
                    .update_attributes(
                        fil_objects[node.index()],
                        vec![(fil_attr, lu.encode().to_vec())],
                        Some(now + lookahead),
                    )
                    .expect("owned object");
            }
        }

        // (3) Broker federate: reflect the surviving updates into the DB,
        // estimate everything that stayed silent.
        let mut heard: Vec<MnId> = Vec::new();
        for cb in broker_fed.tick().expect("joined") {
            if let Callback::ReflectAttributes { values, .. } = cb {
                total_reflections += 1;
                let lu = LocationUpdate::decode(&values[0].1).expect("well-formed frame");
                heard.push(lu.node);
                broker.apply(&IngestRecord::Update(lu));
            }
        }
        for node in nodes.iter() {
            if !heard.contains(&node.id()) {
                broker.apply(&IngestRecord::Filtered {
                    node: node.id(),
                    time_s,
                });
            }
        }

        // (4) Measure broker error against ground truth.
        let mut with_le = Rmse::new();
        let mut without_le = Rmse::new();
        for (id, pos) in &truth {
            let err = |p: Option<Point>| p.map_or(0.0, |p| p.distance_to(*pos));
            with_le.push(err(broker.location(*id).map(|r| r.position)));
            without_le.push(err(broker.last_receipt(*id)));
        }

        mn_fed.tick().expect("joined");
        ticks.push(FederatedTick {
            time_s,
            observed: observations.len() as u32,
            sent,
            rmse_with_le: with_le.value(),
            rmse_without_le: without_le.value(),
        });
    }

    FederatedResult {
        ticks,
        total_reflections,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_policy, PolicySpec};

    fn cfg(ticks: u64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig {
            duration_ticks: ticks,
            ..ExperimentConfig::default()
        };
        cfg.with_network = false;
        cfg
    }

    #[test]
    fn federated_run_reflects_every_observation() {
        let r = run_federated_adf(&cfg(40), 1.0);
        assert_eq!(r.ticks.len(), 40);
        // Every node's raw update reaches the ADF federate each tick.
        for t in &r.ticks {
            assert_eq!(t.observed, 140);
            assert!(t.sent <= t.observed);
        }
        // Reflections = raw (140/tick) + forwarded survivors, except the
        // final tick's forwards: they are stamped `now + lookahead` and the
        // broker's next grant never happens, so they remain in flight.
        let in_flight = u64::from(r.ticks.last().expect("ran").sent);
        assert_eq!(
            r.total_reflections,
            r.total_observed() + r.total_sent() - in_flight
        );
    }

    #[test]
    fn federated_decisions_match_the_direct_pipeline() {
        let cfg = cfg(60);
        let federated = run_federated_adf(&cfg, 1.0);
        let direct = run_policy(&cfg, PolicySpec::Adf(1.0));
        // The filter is deterministic and both paths feed it identical
        // observation batches, so per-tick sent counts agree exactly.
        let fed_sent: Vec<u32> = federated.ticks.iter().map(|t| t.sent).collect();
        let dir_sent: Vec<u32> = direct.ticks.iter().map(|t| t.sent).collect();
        assert_eq!(fed_sent, dir_sent);
    }

    #[test]
    fn federated_le_beats_stale_broker() {
        let r = run_federated_adf(&cfg(300), 1.25);
        let n = r.ticks.len() as f64;
        let with: f64 = r.ticks.iter().map(|t| t.rmse_with_le).sum::<f64>() / n;
        let without: f64 = r.ticks.iter().map(|t| t.rmse_without_le).sum::<f64>() / n;
        assert!(with < without, "with={with} without={without}");
    }
}
