//! Server configuration.

use mobigrid_adf::EstimatorKind;

/// Configuration for one [`Server`](crate::Server): the declared node-id
/// capacity (which fixes the shard routing), the shard count, and the
/// estimator every shard broker runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Declared node-id capacity: the server accepts ids `0..nodes` and
    /// refuses, whole, any ingest batch or `register` naming an id at or
    /// beyond it. Set it to the population the producer streams.
    pub nodes: usize,
    /// Shards the store splits the id space into (clamped to
    /// `[1, nodes]` by the store).
    pub shards: usize,
    /// The location estimator each shard broker runs; must match the
    /// producer's with-LE broker for digest parity.
    pub estimator: EstimatorKind,
    /// Record per-LU flight-recorder events (`lu_channel` / `lu_apply` /
    /// `ingest_batch`) into a detail recorder so the server's telemetry
    /// export stitches against a client export. Off by default: the
    /// ingest hot path then runs the event-free branch.
    pub flight: bool,
    /// Record per-phase self-profiling spans and histograms (frame
    /// decode, CRC verify, shard apply, and the `digest` query's fold).
    /// Off by default.
    pub profile: bool,
    /// Span / event ring capacity of the flight-recorder detail recorder
    /// (ignored unless `flight` is set).
    pub events: usize,
}

impl ServeConfig {
    /// Default detail-recorder ring capacity (64 Ki spans and events —
    /// a few hundred ticks of a mid-size scenario before wrap-around).
    pub const DEFAULT_EVENTS: usize = 65536;
}

impl Default for ServeConfig {
    /// 1024-node capacity over 4 shards with the paper's estimator
    /// ([`EstimatorKind::default`]) — the one `SimConfig` defaults to, so
    /// a default server is digest-compatible with a default sim. Flight
    /// recording and self-profiling are off.
    fn default() -> Self {
        ServeConfig {
            nodes: 1024,
            shards: 4,
            estimator: EstimatorKind::default(),
            flight: false,
            profile: false,
            events: ServeConfig::DEFAULT_EVENTS,
        }
    }
}
