//! Deterministic fault injection for the wireless channel.
//!
//! The paper lists "frequent disconnectivity" and constrained wireless
//! links among the mobile grid's defining properties, yet outside
//! scheduled gateway outages the [`AccessNetwork`] is lossless: every
//! transmitted LU arrives intact, in order, exactly once. This module adds
//! the lossy regime — probabilistic drop, byte corruption, bounded
//! delay/reordering, duplication and gateway flapping — without giving up
//! the workspace's determinism contract.
//!
//! # RNG stream isolation
//!
//! Fault fates are **not** drawn from a shared sequential RNG: that would
//! make them depend on transmission order and therefore on scheduling.
//! Instead every fate is a pure function of
//! `(channel seed, node, sequence number, attempt, salt)`, hashed through
//! a SplitMix64-style finaliser. Two runs with the same seed and the same
//! [`FaultPlan`] see bit-identical fault sequences at any `--threads` or
//! `--campaign-threads` setting, and an unrelated subsystem drawing more
//! or fewer random numbers can never perturb the channel.
//!
//! # Examples
//!
//! ```
//! use mobigrid_wireless::{
//!     AccessNetwork, FaultChannel, FaultPlan, Gateway, GatewayKind, LinkEvent,
//!     LocationUpdate, MnId,
//! };
//! use mobigrid_geo::Point;
//!
//! let mut net = AccessNetwork::new(vec![
//!     Gateway::new(0, GatewayKind::BaseStation, Point::new(0.0, 0.0), 500.0),
//! ]);
//! let plan = FaultPlan { drop_rate: 1.0, ..FaultPlan::lossless() };
//! let mut ch = FaultChannel::new(plan, 7).unwrap();
//! let lu = LocationUpdate::new(MnId::new(1), 0.0, Point::new(10.0, 0.0), 0);
//! // The frame reaches the air (and the meters) but never the broker.
//! assert!(matches!(ch.transmit(&mut net, &lu, 0, 0), LinkEvent::Dropped { .. }));
//! assert_eq!(net.meter().messages(), 1);
//! ```

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::{AccessNetwork, GatewayId, LocationUpdate, OutageSchedule, WirelessError};

/// SplitMix64 finaliser: a high-quality 64-bit mixing function.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic per-event noise: a pure hash of the event coordinates.
///
/// Because the value depends only on `(seed, node, seq, attempt, salt)` —
/// never on when or on which thread the event is evaluated — fault fates
/// and retry jitter replay bit-identically under any parallel schedule.
#[must_use]
pub fn event_noise(seed: u64, node: u32, seq: u32, attempt: u32, salt: u64) -> u64 {
    let event = (u64::from(node) << 32) | u64::from(seq);
    mix(mix(mix(seed ^ salt) ^ event) ^ u64::from(attempt))
}

/// Maps noise onto a uniform float in `[0, 1)`.
fn unit_f64(noise: u64) -> f64 {
    (noise >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Salt namespaces, one per independent decision drawn for an event.
const SALT_DROP: u64 = 0xD0;
const SALT_CORRUPT: u64 = 0xC0;
const SALT_CORRUPT_BYTE: u64 = 0xC1;
const SALT_DELAY: u64 = 0xDE;
const SALT_DELAY_TICKS: u64 = 0xDF;
const SALT_DUPLICATE: u64 = 0xD7;
/// Salt for retry backoff jitter — shared with the sender-side policy.
pub const SALT_RETRY_JITTER: u64 = 0x4A;

/// A periodic up/down cycle for one gateway ("flapping").
///
/// Compiled into concrete [`OutageSchedule`] windows with
/// [`FaultPlan::flap_outages`]; routing then treats the gateway exactly
/// like one with scheduled maintenance, rerouting to other covering
/// gateways where possible.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlapSpec {
    /// The flapping gateway.
    pub gateway: GatewayId,
    /// Full cycle length in seconds (up time + down time).
    pub period_s: f64,
    /// Downtime at the start of each cycle, in seconds.
    pub down_s: f64,
    /// Phase offset of the first downtime, in seconds.
    pub offset_s: f64,
}

impl FlapSpec {
    fn validate(&self) -> Result<(), WirelessError> {
        if !(self.period_s.is_finite() && self.down_s.is_finite() && self.offset_s.is_finite()) {
            return Err(WirelessError::InvalidFaultParameter {
                reason: "flap timings must be finite",
            });
        }
        if self.period_s <= 0.0 || self.down_s <= 0.0 || self.offset_s < 0.0 {
            return Err(WirelessError::InvalidFaultParameter {
                reason: "flap period and downtime must be positive, offset non-negative",
            });
        }
        if self.down_s >= self.period_s {
            return Err(WirelessError::InvalidFaultParameter {
                reason: "flap downtime must be shorter than its period",
            });
        }
        Ok(())
    }
}

/// A declarative description of how the channel misbehaves.
///
/// All probabilities are per-transmission and independent; fates are
/// checked in a fixed order (drop, corrupt, delay, duplicate), so e.g. a
/// dropped frame is never also delayed. [`FaultPlan::lossless`] is the
/// identity plan: a channel built from it delivers every frame exactly
/// once, immediately, intact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability a transmitted frame is silently lost.
    pub drop_rate: f64,
    /// Probability a transmitted frame has one byte corrupted in flight
    /// (the receiver's CRC check then rejects it).
    pub corrupt_rate: f64,
    /// Probability a frame is deferred by 1..=[`FaultPlan::max_delay_ticks`]
    /// ticks, arriving late and possibly reordered.
    pub delay_rate: f64,
    /// Upper bound on the deferral, in ticks (must be ≥ 1 when
    /// [`FaultPlan::delay_rate`] is positive).
    pub max_delay_ticks: u64,
    /// Probability a delivered frame arrives twice.
    pub duplicate_rate: f64,
    /// Gateways that periodically flap down and up.
    pub flaps: Vec<FlapSpec>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::lossless()
    }
}

impl FaultPlan {
    /// The identity plan: no faults of any kind.
    #[must_use]
    pub fn lossless() -> Self {
        FaultPlan {
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            delay_rate: 0.0,
            max_delay_ticks: 0,
            duplicate_rate: 0.0,
            flaps: Vec::new(),
        }
    }

    /// Validates every rate and flap spec.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::InvalidFaultRate`] for a probability
    /// outside `[0, 1]` and [`WirelessError::InvalidFaultParameter`] for a
    /// structurally invalid delay bound or flap spec.
    pub fn validate(&self) -> Result<(), WirelessError> {
        for (name, value) in [
            ("drop_rate", self.drop_rate),
            ("corrupt_rate", self.corrupt_rate),
            ("delay_rate", self.delay_rate),
            ("duplicate_rate", self.duplicate_rate),
        ] {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(WirelessError::InvalidFaultRate { name, value });
            }
        }
        if self.delay_rate > 0.0 && self.max_delay_ticks == 0 {
            return Err(WirelessError::InvalidFaultParameter {
                reason: "max_delay_ticks must be >= 1 when delay_rate > 0",
            });
        }
        for flap in &self.flaps {
            flap.validate()?;
        }
        Ok(())
    }

    /// Compiles the plan's flap specs into concrete outage windows covering
    /// `[0, horizon_s)`, ready to overlay onto an [`AccessNetwork`]'s
    /// schedule with [`OutageSchedule::extend`].
    ///
    /// # Errors
    ///
    /// Returns the flap specs' validation errors, or
    /// [`WirelessError::InvalidFaultParameter`] for a non-finite or
    /// negative horizon.
    pub fn flap_outages(&self, horizon_s: f64) -> Result<OutageSchedule, WirelessError> {
        if !horizon_s.is_finite() || horizon_s < 0.0 {
            return Err(WirelessError::InvalidFaultParameter {
                reason: "flap horizon must be finite and non-negative",
            });
        }
        let mut sched = OutageSchedule::new();
        for flap in &self.flaps {
            flap.validate()?;
            let mut start = flap.offset_s;
            while start < horizon_s {
                sched.add_window(flap.gateway, start, start + flap.down_s)?;
                start += flap.period_s;
            }
        }
        Ok(sched)
    }
}

/// Why the channel dropped a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// No gateway covered the sender — the frame never reached the air.
    NoCoverage,
    /// The frame was lost in flight.
    Fault,
    /// The frame arrived but its checksum failed and the receiver
    /// discarded it.
    Corrupted,
}

/// What happened to one transmitted frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkEvent {
    /// The frame reached the broker this tick.
    Delivered {
        /// The carrying gateway.
        gateway: GatewayId,
        /// A duplicate copy arrives alongside the original.
        duplicate: bool,
    },
    /// The frame is in flight and will arrive at `due_tick` (collect it
    /// with [`FaultChannel::drain_due`]).
    Deferred {
        /// The carrying gateway.
        gateway: GatewayId,
        /// Tick at which the frame becomes deliverable.
        due_tick: u64,
    },
    /// The frame was lost.
    Dropped {
        /// Why it was lost.
        cause: DropCause,
    },
}

/// Aggregate counters of everything the channel did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelStats {
    /// Frames delivered (duplicate copies included).
    pub delivered: u64,
    /// Frames dropped in flight.
    pub dropped: u64,
    /// Frames corrupted in flight and rejected by the receiver's CRC.
    pub corrupted: u64,
    /// Frames deferred to a later tick.
    pub delayed: u64,
    /// Extra duplicate copies delivered.
    pub duplicated: u64,
}

/// A deterministic lossy channel wrapped around an [`AccessNetwork`].
///
/// Each transmission first routes through the network as usual (gateway
/// selection, traffic metering, handoff tracking), then rolls its fault
/// fates from the channel's isolated hash stream. Deferred frames are held
/// in flight, keyed by `(due tick, node, seq)`, and surface through
/// [`FaultChannel::drain_due`] in deterministic key order.
pub struct FaultChannel {
    plan: FaultPlan,
    seed: u64,
    in_flight: BTreeMap<(u64, u32, u32), [u8; LocationUpdate::WIRE_SIZE]>,
    stats: ChannelStats,
}

impl std::fmt::Debug for FaultChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultChannel")
            .field("plan", &self.plan)
            .field("seed", &self.seed)
            .field("in_flight", &self.in_flight.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl FaultChannel {
    /// Creates a channel from a validated plan and a dedicated seed.
    ///
    /// # Errors
    ///
    /// Returns the plan's validation error.
    pub fn new(plan: FaultPlan, seed: u64) -> Result<Self, WirelessError> {
        plan.validate()?;
        Ok(FaultChannel {
            plan,
            seed,
            in_flight: BTreeMap::new(),
            stats: ChannelStats::default(),
        })
    }

    /// The channel's plan.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The channel's seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Aggregate fault counters so far.
    #[must_use]
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Frames currently held in flight (deferred, not yet due).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Exports the channel's cumulative fate counters and in-flight depth
    /// as `channel.*` gauges on `rec`. Gauges are last-write-wins, so
    /// calling this once per tick leaves the run's final totals in the
    /// recorder.
    pub fn record_telemetry(&self, rec: &mut dyn mobigrid_telemetry::Recorder) {
        rec.gauge_set("channel.delivered", self.stats.delivered as f64);
        rec.gauge_set("channel.dropped", self.stats.dropped as f64);
        rec.gauge_set("channel.corrupted", self.stats.corrupted as f64);
        rec.gauge_set("channel.delayed", self.stats.delayed as f64);
        rec.gauge_set("channel.duplicated", self.stats.duplicated as f64);
        rec.gauge_set("channel.in_flight", self.in_flight.len() as f64);
    }

    fn roll(&self, lu: &LocationUpdate, attempt: u32, salt: u64) -> u64 {
        event_noise(self.seed, lu.node.raw(), lu.seq, attempt, salt)
    }

    /// A copy of `frame` with one deterministically chosen byte flipped —
    /// what the plan's `corrupt_rate` does to a frame in flight. The flip
    /// is never zero, so the copy always differs from the original in
    /// exactly one byte.
    #[must_use]
    pub fn corrupted_copy(
        &self,
        frame: &[u8; LocationUpdate::WIRE_SIZE],
        lu: &LocationUpdate,
        attempt: u32,
    ) -> [u8; LocationUpdate::WIRE_SIZE] {
        let noise = self.roll(lu, attempt, SALT_CORRUPT_BYTE);
        let index = (noise % LocationUpdate::WIRE_SIZE as u64) as usize;
        let flip = ((noise >> 8) % 255) as u8 + 1;
        let mut out = *frame;
        out[index] ^= flip;
        out
    }

    /// Transmits `lu` through `net` and rolls its fault fates.
    ///
    /// `attempt` is the sender's retransmission count (0 for the first
    /// try): each attempt gets an independent fate, so a retry of a
    /// dropped frame is not doomed to the same outcome. `tick` anchors
    /// deferrals.
    ///
    /// Routing failures ([`WirelessError::NoCoverage`]) surface as
    /// [`LinkEvent::Dropped`] with [`DropCause::NoCoverage`]; the network
    /// meters count every frame that reaches the air, including ones the
    /// channel then loses — airtime is consumed either way.
    pub fn transmit(
        &mut self,
        net: &mut AccessNetwork,
        lu: &LocationUpdate,
        attempt: u32,
        tick: u64,
    ) -> LinkEvent {
        let gateway = match net.transmit(lu) {
            Ok(gw) => gw,
            Err(_) => {
                return LinkEvent::Dropped {
                    cause: DropCause::NoCoverage,
                }
            }
        };
        if unit_f64(self.roll(lu, attempt, SALT_DROP)) < self.plan.drop_rate {
            self.stats.dropped += 1;
            return LinkEvent::Dropped {
                cause: DropCause::Fault,
            };
        }
        let frame = lu.encode();
        if unit_f64(self.roll(lu, attempt, SALT_CORRUPT)) < self.plan.corrupt_rate {
            let damaged = self.corrupted_copy(&frame, lu, attempt);
            // The receiver validates the CRC before trusting any field; a
            // single-byte flip is always caught, so the frame is discarded.
            if LocationUpdate::decode(&damaged).is_err() {
                self.stats.corrupted += 1;
                return LinkEvent::Dropped {
                    cause: DropCause::Corrupted,
                };
            }
        }
        if unit_f64(self.roll(lu, attempt, SALT_DELAY)) < self.plan.delay_rate {
            let ticks = 1 + self.roll(lu, attempt, SALT_DELAY_TICKS) % self.plan.max_delay_ticks;
            let due_tick = tick + ticks;
            self.in_flight
                .insert((due_tick, lu.node.raw(), lu.seq), frame);
            self.stats.delayed += 1;
            return LinkEvent::Deferred { gateway, due_tick };
        }
        let duplicate = unit_f64(self.roll(lu, attempt, SALT_DUPLICATE)) < self.plan.duplicate_rate;
        self.stats.delivered += 1 + u64::from(duplicate);
        self.stats.duplicated += u64::from(duplicate);
        LinkEvent::Delivered { gateway, duplicate }
    }

    /// Removes every in-flight frame due at or before `tick` and appends
    /// the decoded updates to `out`, in `(due tick, node, seq)` order.
    ///
    /// Deferred frames were validated at transmit time, so decoding cannot
    /// fail here. Late arrivals may be stale relative to what the broker
    /// has since received — receiver-side ordering is the broker's job.
    pub fn drain_due(&mut self, tick: u64, out: &mut Vec<LocationUpdate>) {
        while let Some(entry) = self.in_flight.first_entry() {
            if entry.key().0 > tick {
                break;
            }
            let frame = entry.remove();
            let lu =
                LocationUpdate::decode(&frame).expect("deferred frames were validated at transmit");
            self.stats.delivered += 1;
            out.push(lu);
        }
    }
}

/// Bounded retransmission with exponential backoff and deterministic
/// jitter, applied by the sender when a location update fails to deliver.
///
/// After the `n`-th consecutive failure (`n` starting at 1) the sender
/// waits `min(base_backoff_ticks * 2^(n-1), max_backoff_ticks)` ticks plus
/// a jitter of `0..=jitter_ticks` drawn from the same hashed event stream
/// as the channel fates, then retransmits its *current* position with a
/// fresh sequence number. After `max_retries` consecutive failures the
/// update is abandoned and the broker rides on its estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum retransmissions per lost update (0 disables retries).
    pub max_retries: u32,
    /// Backoff after the first failure, in ticks (≥ 1).
    pub base_backoff_ticks: u64,
    /// Cap on the exponential backoff, in ticks.
    pub max_backoff_ticks: u64,
    /// Maximum additional jitter, in ticks.
    pub jitter_ticks: u64,
}

impl Default for RetryPolicy {
    /// Three retries, 1-tick base backoff capped at 8 ticks, ±1 tick
    /// jitter.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff_ticks: 1,
            max_backoff_ticks: 8,
            jitter_ticks: 1,
        }
    }
}

impl RetryPolicy {
    /// Validates the policy's structure.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::InvalidFaultParameter`] when the base
    /// backoff is zero or exceeds the cap.
    pub fn validate(&self) -> Result<(), WirelessError> {
        if self.base_backoff_ticks == 0 {
            return Err(WirelessError::InvalidFaultParameter {
                reason: "base_backoff_ticks must be >= 1",
            });
        }
        if self.max_backoff_ticks < self.base_backoff_ticks {
            return Err(WirelessError::InvalidFaultParameter {
                reason: "max_backoff_ticks must be >= base_backoff_ticks",
            });
        }
        Ok(())
    }

    /// The wait before retry number `attempt` (1-based), in ticks:
    /// capped exponential backoff plus hashed jitter.
    #[must_use]
    pub fn backoff_ticks(&self, attempt: u32, noise: u64) -> u64 {
        debug_assert!(attempt >= 1, "attempt numbering starts at 1");
        let exp = attempt.saturating_sub(1).min(63);
        let backoff = self
            .base_backoff_ticks
            .saturating_mul(1u64 << exp)
            .min(self.max_backoff_ticks);
        let jitter = if self.jitter_ticks == 0 {
            0
        } else {
            noise % (self.jitter_ticks + 1)
        };
        backoff + jitter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gateway, GatewayKind, MnId};
    use mobigrid_geo::Point;

    fn wide_net() -> AccessNetwork {
        AccessNetwork::new(vec![Gateway::new(
            0,
            GatewayKind::BaseStation,
            Point::new(0.0, 0.0),
            1e6,
        )])
    }

    fn lu(node: u32, seq: u32) -> LocationUpdate {
        LocationUpdate::new(MnId::new(node), f64::from(seq), Point::new(5.0, 5.0), seq)
    }

    #[test]
    fn lossless_channel_is_transparent() {
        let mut net = wide_net();
        let mut ch = FaultChannel::new(FaultPlan::lossless(), 1).unwrap();
        for seq in 0..100 {
            let event = ch.transmit(&mut net, &lu(1, seq), 0, u64::from(seq));
            assert!(matches!(
                event,
                LinkEvent::Delivered {
                    duplicate: false,
                    ..
                }
            ));
        }
        assert_eq!(ch.stats().delivered, 100);
        assert_eq!(
            ch.stats(),
            ChannelStats {
                delivered: 100,
                ..ChannelStats::default()
            }
        );
        assert_eq!(ch.in_flight(), 0);
    }

    #[test]
    fn fates_are_a_pure_function_of_the_event() {
        let plan = FaultPlan {
            drop_rate: 0.3,
            corrupt_rate: 0.2,
            delay_rate: 0.2,
            max_delay_ticks: 4,
            duplicate_rate: 0.2,
            flaps: Vec::new(),
        };
        let run = |order: &[u32]| -> Vec<LinkEvent> {
            let mut net = wide_net();
            let mut ch = FaultChannel::new(plan.clone(), 99).unwrap();
            order
                .iter()
                .map(|&seq| ch.transmit(&mut net, &lu(seq % 7, seq), 0, 0))
                .collect()
        };
        // Same events in a different submission order: each event's fate
        // is unchanged, because fates ignore transmission order entirely.
        let forward: Vec<u32> = (0..50).collect();
        let backward: Vec<u32> = (0..50).rev().collect();
        let mut a = run(&forward);
        let mut b = run(&backward);
        b.reverse();
        // Deferral due-ticks depend only on the event too (tick was fixed).
        assert_eq!(a.len(), b.len());
        a.iter_mut().zip(b.iter_mut()).for_each(|(x, y)| {
            assert_eq!(x, y);
        });
    }

    #[test]
    fn different_attempts_get_independent_fates() {
        let plan = FaultPlan {
            drop_rate: 0.5,
            ..FaultPlan::lossless()
        };
        let mut net = wide_net();
        let mut ch = FaultChannel::new(plan, 12).unwrap();
        let outcomes: Vec<bool> = (0..64)
            .map(|attempt| {
                matches!(
                    ch.transmit(&mut net, &lu(3, 9), attempt, 0),
                    LinkEvent::Delivered { .. }
                )
            })
            .collect();
        assert!(outcomes.iter().any(|d| *d), "some attempt must survive");
        assert!(outcomes.iter().any(|d| !*d), "some attempt must drop");
    }

    #[test]
    fn deferred_frames_surface_in_due_order() {
        let plan = FaultPlan {
            delay_rate: 1.0,
            max_delay_ticks: 5,
            ..FaultPlan::lossless()
        };
        let mut net = wide_net();
        let mut ch = FaultChannel::new(plan, 5).unwrap();
        let mut dues = Vec::new();
        for seq in 0..20 {
            match ch.transmit(&mut net, &lu(2, seq), 0, 10) {
                LinkEvent::Deferred { due_tick, .. } => dues.push(due_tick),
                other => panic!("expected deferral, got {other:?}"),
            }
        }
        assert_eq!(ch.in_flight(), 20);
        assert!(dues.iter().all(|d| (11..=15).contains(d)));
        let mut out = Vec::new();
        ch.drain_due(12, &mut out);
        let early = out.len();
        assert_eq!(
            early,
            dues.iter().filter(|d| **d <= 12).count(),
            "drain must release exactly the due frames"
        );
        ch.drain_due(15, &mut out);
        assert_eq!(out.len(), 20);
        assert_eq!(ch.in_flight(), 0);
        // Round-trip: every drained update is one we sent.
        for lu_out in &out {
            assert_eq!(lu_out.node, MnId::new(2));
            assert_eq!(lu_out.position, Point::new(5.0, 5.0));
        }
    }

    #[test]
    fn corrupted_copies_differ_in_exactly_one_byte_and_never_decode() {
        let ch = FaultChannel::new(FaultPlan::lossless(), 77).unwrap();
        for seq in 0..200 {
            let update = lu(4, seq);
            let frame = update.encode();
            let damaged = ch.corrupted_copy(&frame, &update, 0);
            let diff = frame
                .iter()
                .zip(damaged.iter())
                .filter(|(a, b)| a != b)
                .count();
            assert_eq!(diff, 1, "seq {seq}: exactly one byte must change");
            assert!(
                LocationUpdate::decode(&damaged).is_err(),
                "seq {seq}: corrupted frame must not decode"
            );
        }
    }

    #[test]
    fn flap_outages_tile_the_horizon() {
        let plan = FaultPlan {
            flaps: vec![FlapSpec {
                gateway: GatewayId::new(1),
                period_s: 60.0,
                down_s: 10.0,
                offset_s: 5.0,
            }],
            ..FaultPlan::lossless()
        };
        let sched = plan.flap_outages(180.0).unwrap();
        assert_eq!(sched.window_count(), 3);
        assert!(sched.is_down(GatewayId::new(1), 5.0));
        assert!(sched.is_down(GatewayId::new(1), 70.0));
        assert!(!sched.is_down(GatewayId::new(1), 20.0));
        assert!((sched.total_downtime(GatewayId::new(1)) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let bad_rate = FaultPlan {
            drop_rate: 1.5,
            ..FaultPlan::lossless()
        };
        assert!(matches!(
            FaultChannel::new(bad_rate, 0).unwrap_err(),
            WirelessError::InvalidFaultRate {
                name: "drop_rate",
                ..
            }
        ));
        let bad_delay = FaultPlan {
            delay_rate: 0.5,
            max_delay_ticks: 0,
            ..FaultPlan::lossless()
        };
        assert!(matches!(
            FaultChannel::new(bad_delay, 0).unwrap_err(),
            WirelessError::InvalidFaultParameter { .. }
        ));
        let bad_flap = FaultPlan {
            flaps: vec![FlapSpec {
                gateway: GatewayId::new(0),
                period_s: 10.0,
                down_s: 10.0,
                offset_s: 0.0,
            }],
            ..FaultPlan::lossless()
        };
        assert!(bad_flap.validate().is_err());
    }

    #[test]
    fn retry_backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy {
            max_retries: 6,
            base_backoff_ticks: 2,
            max_backoff_ticks: 12,
            jitter_ticks: 0,
        };
        policy.validate().unwrap();
        assert_eq!(policy.backoff_ticks(1, 0), 2);
        assert_eq!(policy.backoff_ticks(2, 0), 4);
        assert_eq!(policy.backoff_ticks(3, 0), 8);
        assert_eq!(policy.backoff_ticks(4, 0), 12, "capped");
        assert_eq!(policy.backoff_ticks(40, 0), 12, "no shift overflow");
    }

    #[test]
    fn retry_jitter_is_bounded_and_deterministic() {
        let policy = RetryPolicy {
            jitter_ticks: 3,
            ..RetryPolicy::default()
        };
        for node in 0..20u32 {
            let noise = event_noise(9, node, 0, 1, SALT_RETRY_JITTER);
            let wait = policy.backoff_ticks(1, noise);
            assert!((1..=4).contains(&wait), "wait {wait} out of bounds");
            assert_eq!(
                wait,
                policy.backoff_ticks(1, noise),
                "same noise, same wait"
            );
        }
    }

    #[test]
    fn invalid_retry_policies_are_rejected() {
        assert!(RetryPolicy {
            base_backoff_ticks: 0,
            ..RetryPolicy::default()
        }
        .validate()
        .is_err());
        assert!(RetryPolicy {
            base_backoff_ticks: 4,
            max_backoff_ticks: 2,
            ..RetryPolicy::default()
        }
        .validate()
        .is_err());
    }
}
