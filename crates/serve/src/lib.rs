//! The grid broker as a live service.
//!
//! This crate lifts the in-sim [`GridBroker`](mobigrid_adf::GridBroker)
//! behind a long-running server:
//!
//! * **Ingest** — length-prefixed batches of PR-3 wire frames (the
//!   [`mobigrid_wireless`] stream codec: 36-byte CRC-32 location updates
//!   plus filtered/lost/tick-end markers) arrive over TCP or through the
//!   in-process transport, are checksum-validated by the codec, and are
//!   applied through the broker's staleness-widened trust-blend path via
//!   the sharded concurrent [`BrokerStore`](mobigrid_adf::BrokerStore).
//! * **Query** — a hand-rolled line-delimited JSON RPC (no external
//!   dependencies; requests parse through
//!   [`mobigrid_telemetry::json`]) answering position estimates, region
//!   censuses, staleness reports, server stats and state digests.
//! * **Metrics** — every ingest batch and query is recorded into a
//!   [`MemoryRecorder`](mobigrid_telemetry::MemoryRecorder) behind a
//!   mutex (`serve.*` counters, [`Phase::Ingest`] / [`Phase::Query`]
//!   spans, microsecond latency histograms), so the server's telemetry
//!   export is the same JSONL the experiment harness emits and the
//!   `trace --check` CLI accepts.
//! * **Observability plane** — an [`admin`] HTTP listener exposes the
//!   live metrics as a Prometheus text-format `/metrics` page plus
//!   `/health` and `/ready` probes; with [`ServeConfig::flight`] the
//!   server keeps a per-LU flight recorder whose export stitches against
//!   a client export (`trace --stitch CLIENT.jsonl SERVER.jsonl`), and
//!   with [`ServeConfig::profile`] the ingest hot phases (CRC verify,
//!   frame decode, shard apply) and the `digest` query's fold are timed
//!   into `serve.phase.*_us` histograms. All of it is off by default and
//!   costs nothing then.
//!
//! The `serve` binary hosts the server on loopback; the `loadgen` binary
//! replays a registered scenario's mobility trace through a filter policy
//! at a configurable multiple of real time and verifies, via state
//! digests, that the served broker is **bit-identical** to an in-sim run.
//!
//! [`Phase::Ingest`]: mobigrid_telemetry::Phase::Ingest
//! [`Phase::Query`]: mobigrid_telemetry::Phase::Query

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admin;
mod config;
pub mod net;
mod server;

pub use config::ServeConfig;
pub use server::{InProcClient, Server};
