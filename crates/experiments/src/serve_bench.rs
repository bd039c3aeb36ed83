//! In-process broker-service benchmark: the serve ingest path without
//! the socket.
//!
//! This experiment exercises the exact data path the `mobigrid-broker-serve`
//! crate runs in production — [`mobigrid_adf::MobileGridSim::step_tapped`]
//! producing the
//! per-tick broker op stream, the wire codec
//! ([`encode_batch`] / [`decode_batch`]) framing it into
//! length-prefixed batches, and a sharded [`BrokerStore`] applying the
//! decoded records — and then proves the replay exact by comparing
//! [`state digests`](mobigrid_adf::GridBroker::state_digest) against the
//! live in-sim broker. The report carries the sustained ingest rate
//! (records through encode → decode → apply per wall-clock second), which
//! is the in-process upper bound on what the TCP front-end can sustain.

use std::fmt;
use std::time::Instant;

use mobigrid_adf::BrokerStore;
use mobigrid_wireless::{decode_batch, encode_batch, MnId};

use crate::config::ExperimentConfig;
use crate::report::text_table;
use crate::simconfig::SimConfig;

/// Shards the benchmark store splits the broker across, matching the
/// serve crate's default.
const STORE_SHARDS: usize = 4;

/// Ticks the benchmark replays at most; campus steady state is reached
/// well before this, and the digest check runs every tick regardless.
const MAX_TICKS: u64 = 600;

/// The benchmark's outcome: replay volume, sustained ingest rate, and
/// the digest parity verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBenchReport {
    /// Scenario replayed.
    pub scenario: &'static str,
    /// Ticks replayed through the codec and store.
    pub ticks: u64,
    /// Ingest records applied (updates + filtered + lost markers +
    /// tick-end markers).
    pub records: u64,
    /// Wire bytes moved through the codec, batch prefixes included.
    pub wire_bytes: u64,
    /// Records sustained per wall-clock second through
    /// encode → decode → apply.
    pub records_per_s: f64,
    /// Store shard count.
    pub shards: usize,
    /// Final store digest (equals the live broker's when `parity` holds).
    pub digest: u64,
    /// Whether the sharded replay stayed bit-identical to the live
    /// in-sim broker on every tick.
    pub parity: bool,
}

/// Runs the in-process serve path over the paper's campus and verifies
/// replay parity tick by tick.
///
/// # Panics
///
/// Panics if the campus scenario or the benchmark store cannot be built
/// (static configuration; it can).
#[must_use]
pub fn compute(cfg: &ExperimentConfig) -> ServeBenchReport {
    let scenario = "campus_140";
    let ticks = cfg.duration_ticks.clamp(1, MAX_TICKS);
    let mut sim = SimConfig {
        seed: cfg.seed,
        runtime: cfg.runtime.clone(),
        ..SimConfig::scenario(scenario)
    }
    .build()
    .expect("the campus scenario is registered");
    let store = BrokerStore::new(
        sim.broker_with_le().estimator_kind(),
        sim.node_count(),
        STORE_SHARDS,
    )
    .expect("the live broker's estimator kind already validated");
    for (i, anchor) in sim.columns().home_anchors().iter().enumerate() {
        if let Some(anchor) = anchor {
            store.set_home_anchor(MnId::new(i as u32), *anchor);
        }
    }

    let mut ops = Vec::new();
    let mut records = 0u64;
    let mut wire_bytes = 0u64;
    let mut parity = true;
    let mut ingest_time = std::time::Duration::ZERO;
    for _ in 0..ticks {
        ops.clear();
        sim.step_tapped(&mut ops);
        let started = Instant::now();
        let frame = encode_batch(&ops);
        let decoded = decode_batch(&frame).expect("self-encoded batch decodes");
        store.apply_batch(&decoded);
        ingest_time += started.elapsed();
        records += ops.len() as u64;
        wire_bytes += frame.len() as u64;
        parity &= store.state_digest() == sim.broker_with_le().state_digest();
    }
    let secs = ingest_time.as_secs_f64();
    ServeBenchReport {
        scenario,
        ticks,
        records,
        wire_bytes,
        records_per_s: if secs > 0.0 {
            records as f64 / secs
        } else {
            0.0
        },
        shards: STORE_SHARDS,
        digest: store.state_digest(),
        parity,
    }
}

impl ServeBenchReport {
    /// Machine-readable CSV, one data row.
    #[must_use]
    pub fn to_csv(&self) -> String {
        format!(
            "scenario,ticks,records,wire_bytes,records_per_s,shards,parity\n{},{},{},{},{:.0},{},{}\n",
            self.scenario,
            self.ticks,
            self.records,
            self.wire_bytes,
            self.records_per_s,
            self.shards,
            self.parity
        )
    }
}

impl fmt::Display for ServeBenchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Serve ingest benchmark (in-process codec + {}-shard store)",
            self.shards
        )?;
        let rows = vec![vec![
            self.scenario.to_string(),
            self.ticks.to_string(),
            self.records.to_string(),
            self.wire_bytes.to_string(),
            format!("{:.2e}", self.records_per_s),
            if self.parity {
                "bit-identical".to_string()
            } else {
                "DIVERGED".to_string()
            },
        ]];
        let t = text_table(
            &[
                "scenario",
                "ticks",
                "records",
                "wire bytes",
                "rec/s",
                "replay",
            ],
            &rows,
        );
        writeln!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_through_the_codec_is_bit_identical() {
        let cfg = ExperimentConfig {
            duration_ticks: 80,
            ..ExperimentConfig::default()
        };
        let report = compute(&cfg);
        assert!(report.parity, "sharded replay diverged from the live sim");
        assert_eq!(report.ticks, 80);
        // 140 nodes produce at least one record per node-tick plus the
        // tick-end marker.
        assert!(report.records >= 80 * 141, "records = {}", report.records);
        assert!(report.wire_bytes > 0);
        assert!(report.records_per_s > 0.0);
        let text = report.to_string();
        assert!(text.contains("bit-identical"), "{text}");
        assert!(report.to_csv().starts_with("scenario,"));
    }
}
