//! Deterministic, thread-count-invariant observability for the mobigrid
//! stack.
//!
//! The simulation pipeline's determinism contract — bit-identical results
//! for every worker-thread count — extends to everything this crate
//! records. Three rules make that work:
//!
//! 1. **Logical time only.** Samples are stamped by a monotonic
//!    [`TickClock`] (`tick` plus a per-tick sequence number), never by wall
//!    time, so a recorded trace replays identically.
//! 2. **Order-free or order-fixed.** Counter increments and
//!    [`HistogramDelta`] merges are exactly associative and commutative
//!    (integer adds plus `f64` min/max — deliberately no floating-point
//!    sums), so per-shard partials can be merged in shard order with the
//!    same algebra as the pipeline's `BrokerDelta`. Everything that is
//!    *not* order-free (events, spans, gauges) is only ever recorded from
//!    sequential phases or merged in a fixed submission order.
//! 3. **No feedback.** Recorders observe the simulation; they never
//!    influence it. The default [`NoopRecorder`] is a zero-sized no-op, so
//!    the steady-state tick path stays zero-allocation and golden traces
//!    stay bit-exact.
//!
//! The pieces:
//!
//! * [`Recorder`] — the sink trait the pipeline talks to; every method
//!   defaults to a no-op.
//! * [`NoopRecorder`] / [`MemoryRecorder`] — the zero-cost default and the
//!   in-memory implementation behind `--telemetry`.
//! * [`BucketSpec`] / [`HistogramDelta`] — fixed log-spaced histograms
//!   whose merge is exact.
//! * [`Phase`], [`EventKind`], [`EventRing`] — per-phase timing spans and
//!   a bounded structured event ring carrying the per-LU flight-recorder
//!   chain (generated → classified → filter decision → channel fate →
//!   broker apply → error sample) plus invariant-violation events.
//! * [`monitor`] — online invariant monitors ([`MonitorSet`]) replaying
//!   conservation laws over per-tick vitals, both live in the pipeline and
//!   offline from an exported trace.
//! * JSONL / CSV exporters on [`MemoryRecorder`], plus a tiny dependency-
//!   free [`json`] validator/parser used by the tests, the trace CLI and
//!   the CI smoke step.
//! * [`prom`] — a hand-rendered Prometheus text-format exposition of a
//!   [`MemoryRecorder`] snapshot, behind the broker service's `/metrics`
//!   admin endpoint.
//!
//! # Examples
//!
//! ```
//! use mobigrid_telemetry::{MemoryRecorder, Phase, Recorder};
//!
//! let mut rec = MemoryRecorder::new();
//! rec.tick_start(1);
//! rec.counter_add("sim.sent", 3);
//! rec.span(Phase::Filter, 140);
//! assert_eq!(rec.counter("sim.sent"), 3);
//! assert!(rec.to_jsonl().lines().count() >= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod event;
mod export;
mod hist;
pub mod json;
pub mod monitor;
pub mod prom;
mod recorder;

pub use clock::{Stamp, TickClock};
pub use event::{
    ApplyOutcome, Event, EventKind, EventRing, LinkFate, MobilityClass, Phase, SpanRecord,
};
pub use hist::{BucketSpec, HistogramDelta, MAX_BUCKETS};
pub use monitor::{
    BlockReport, MonitorKind, MonitorSet, MonitorShard, NodeBlock, NodeFate, TickVitals, Violation,
};
pub use recorder::{MemoryRecorder, NoopRecorder, Recorder};
