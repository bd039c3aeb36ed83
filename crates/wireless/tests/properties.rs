//! Property-based tests for the wireless access substrate.

use mobigrid_geo::Point;
use mobigrid_wireless::{
    decode_batch, decode_payload, encode_batch, verify_batch_crcs, AccessNetwork, Battery,
    EnergyModel, FaultChannel, FaultPlan, Gateway, GatewayKind, IngestRecord, LinkEvent,
    LocationUpdate, MnId,
};
use proptest::prelude::*;

fn grid_network(cells: u32, range: f64) -> AccessNetwork {
    let gateways = (0..cells)
        .map(|i| {
            Gateway::new(
                i,
                GatewayKind::BaseStation,
                Point::new(f64::from(i) * 100.0, 0.0),
                range,
            )
        })
        .collect();
    AccessNetwork::new(gateways)
}

/// Payload-shaped bytes: runs of an opcode (mostly valid, sometimes not)
/// followed by a body of random length, so the decoders get past the
/// first byte. At most 64 × 49 bytes, under 4 KiB.
fn record_shaped_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0u8..7, prop::collection::vec(any::<u8>(), 0..48)), 0..64).prop_map(
        |chunks| {
            chunks
                .into_iter()
                .flat_map(|(opcode, body)| std::iter::once(opcode).chain(body))
                .collect()
        },
    )
}

/// Prefixes `payload` with its own big-endian length, as a sender would.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut batch = (payload.len() as u32).to_be_bytes().to_vec();
    batch.extend_from_slice(payload);
    batch
}

/// One record of each kind in turn, built from `(node, value)` pairs.
fn mixed_records(xs: &[(u32, f64)]) -> Vec<IngestRecord> {
    xs.iter()
        .enumerate()
        .map(|(i, &(node, v))| {
            let node = MnId::new(node);
            match i % 5 {
                0 => {
                    IngestRecord::Update(LocationUpdate::new(node, v, Point::new(v, -v), i as u32))
                }
                1 => IngestRecord::Filtered { node, time_s: v },
                2 => IngestRecord::Lost { node, time_s: v },
                3 => IngestRecord::TickEnd {
                    tick: i as u64,
                    time_s: v,
                },
                _ => IngestRecord::BatchSpan {
                    tick: i as u64,
                    batch_seq: 7,
                    sent_unix_us: 1,
                    dt_s: v,
                },
            }
        })
        .collect()
}

/// The batch decoders never panic, and the CRC pass rejects exactly what
/// the decoder rejects, counting one check per LU record it accepts.
fn check_batch_decoders(payload: &[u8]) {
    let _ = decode_batch(payload);
    let decoded = decode_batch(&framed(payload));
    let verified = verify_batch_crcs(payload);
    assert_eq!(
        decoded.is_ok(),
        verified.is_ok(),
        "{decoded:?} vs {verified:?}"
    );
    if let (Ok(records), Ok(checked)) = (decoded, verified) {
        let updates = records
            .iter()
            .filter(|r| matches!(r, IngestRecord::Update(_)))
            .count();
        assert_eq!(checked, updates as u64);
        assert_eq!(decode_payload(payload).unwrap(), records);
    }
}

proptest! {
    #[test]
    fn lu_wire_format_round_trips(
        node in any::<u32>(),
        seq in any::<u32>(),
        t in -1.0e6..1.0e6f64,
        x in -1.0e6..1.0e6f64,
        y in -1.0e6..1.0e6f64,
    ) {
        let lu = LocationUpdate::new(MnId::new(node), t, Point::new(x, y), seq);
        let wire = lu.encode();
        prop_assert_eq!(wire.len(), LocationUpdate::WIRE_SIZE);
        prop_assert_eq!(LocationUpdate::decode(&wire).unwrap(), lu);
    }

    #[test]
    fn association_always_picks_a_covering_gateway(
        x in 0.0..400.0f64,
        y in -50.0..50.0f64,
    ) {
        let net = grid_network(5, 120.0);
        let p = Point::new(x, y);
        let best = net.best_gateway(p);
        // Coverage is contiguous with this spacing, so a gateway exists…
        let gw = best.expect("grid covers the strip");
        // …it covers the point…
        prop_assert!(gw.covers(p));
        // …and no other gateway is strictly nearer.
        for other in net.gateways() {
            if other.covers(p) {
                prop_assert!(gw.distance_to(p) <= other.distance_to(p) + 1e-9);
            }
        }
    }

    #[test]
    fn traffic_meter_counts_every_successful_transmit(
        xs in prop::collection::vec(0.0..400.0f64, 1..50),
    ) {
        let mut net = grid_network(5, 120.0);
        let mut expected = 0u64;
        for (i, x) in xs.iter().enumerate() {
            let lu = LocationUpdate::new(MnId::new(0), i as f64, Point::new(*x, 0.0), i as u32);
            if net.transmit(&lu).is_ok() {
                expected += 1;
            }
        }
        prop_assert_eq!(net.meter().messages(), expected);
        prop_assert_eq!(net.meter().bytes(), expected * LocationUpdate::WIRE_SIZE as u64);
        prop_assert_eq!(net.dropped() + expected, xs.len() as u64);
    }

    #[test]
    fn battery_never_goes_negative_and_counts_frames(
        capacity in 0.0..10.0f64,
        frames in 1usize..200,
    ) {
        let model = EnergyModel::default();
        let mut battery = Battery::new(capacity, model);
        let mut sent = 0u64;
        for _ in 0..frames {
            if battery.transmit(LocationUpdate::WIRE_SIZE) {
                sent += 1;
            }
        }
        prop_assert!(battery.remaining_j() >= 0.0);
        prop_assert_eq!(battery.frames_sent(), sent);
        let cost = model.frame_cost_j(LocationUpdate::WIRE_SIZE);
        prop_assert!((battery.consumed_j() - sent as f64 * cost).abs() < 1e-9);
    }

    #[test]
    fn lossless_channel_delivers_everything_in_order(
        seed in any::<u64>(),
        sends in prop::collection::vec((0u32..8, 0.0..400.0f64), 1..60),
    ) {
        // Drop rate 0.0 (and every other rate 0.0): the channel is the
        // identity — every frame is delivered immediately, exactly once,
        // in submission order.
        let mut net = grid_network(5, 250.0);
        let mut ch = FaultChannel::new(FaultPlan::lossless(), seed).unwrap();
        let mut delivered = Vec::new();
        for (tick, (node, x)) in sends.iter().enumerate() {
            let lu = LocationUpdate::new(
                MnId::new(*node),
                tick as f64,
                Point::new(*x, 0.0),
                tick as u32,
            );
            match ch.transmit(&mut net, &lu, 0, tick as u64) {
                LinkEvent::Delivered { duplicate, .. } => {
                    prop_assert!(!duplicate);
                    delivered.push(lu);
                }
                LinkEvent::Dropped { .. } => {} // out of coverage only
                LinkEvent::Deferred { .. } => {
                    prop_assert!(false, "lossless channel must never defer");
                }
            }
        }
        prop_assert_eq!(ch.in_flight(), 0);
        prop_assert_eq!(ch.stats().delivered, delivered.len() as u64);
        prop_assert_eq!(ch.stats().dropped + ch.stats().corrupted
            + ch.stats().delayed + ch.stats().duplicated, 0);
        // Delivery order is submission order (times strictly increase).
        for pair in delivered.windows(2) {
            prop_assert!(pair[0].time_s < pair[1].time_s);
        }
    }

    #[test]
    fn full_loss_channel_delivers_nothing(
        seed in any::<u64>(),
        sends in prop::collection::vec(0.0..400.0f64, 1..60),
    ) {
        let plan = FaultPlan { drop_rate: 1.0, ..FaultPlan::lossless() };
        let mut net = grid_network(5, 250.0);
        let mut ch = FaultChannel::new(plan, seed).unwrap();
        for (tick, x) in sends.iter().enumerate() {
            let lu = LocationUpdate::new(MnId::new(0), tick as f64, Point::new(*x, 0.0), tick as u32);
            let event = ch.transmit(&mut net, &lu, 0, tick as u64);
            prop_assert!(matches!(event, LinkEvent::Dropped { .. }));
        }
        prop_assert_eq!(ch.stats().delivered, 0);
        prop_assert_eq!(ch.in_flight(), 0);
    }

    #[test]
    fn duplication_never_invents_bytes(
        seed in any::<u64>(),
        node in any::<u32>(),
        seq in any::<u32>(),
        t in -1.0e6..1.0e6f64,
        x in 0.0..400.0f64,
    ) {
        // A duplicated delivery is a byte-for-byte copy: re-encoding the
        // delivered update reproduces the original frame exactly, so the
        // duplicate carries no bytes the sender didn't transmit.
        let plan = FaultPlan { duplicate_rate: 1.0, ..FaultPlan::lossless() };
        let mut net = grid_network(5, 250.0);
        let mut ch = FaultChannel::new(plan, seed).unwrap();
        let lu = LocationUpdate::new(MnId::new(node), t, Point::new(x, 0.0), seq);
        match ch.transmit(&mut net, &lu, 0, 0) {
            LinkEvent::Delivered { duplicate, .. } => {
                prop_assert!(duplicate);
                // Both copies decode back to the transmitted update.
                let frame = lu.encode_to_array();
                let copy = LocationUpdate::decode_from(&frame).unwrap();
                prop_assert_eq!(copy, lu);
                prop_assert_eq!(copy.encode_to_array(), frame);
                prop_assert_eq!(ch.stats().delivered, 2);
                prop_assert_eq!(ch.stats().duplicated, 1);
            }
            other => prop_assert!(false, "expected duplicated delivery, got {:?}", other),
        }
    }

    #[test]
    fn checksum_catches_every_single_byte_flip(
        node in any::<u32>(),
        seq in any::<u32>(),
        t in -1.0e6..1.0e6f64,
        x in -1.0e6..1.0e6f64,
        y in -1.0e6..1.0e6f64,
        index in 0usize..LocationUpdate::WIRE_SIZE,
        flip in 1u8..=255,
    ) {
        let lu = LocationUpdate::new(MnId::new(node), t, Point::new(x, y), seq);
        let mut frame = lu.encode_to_array();
        frame[index] ^= flip;
        prop_assert!(
            LocationUpdate::decode_from(&frame).is_err(),
            "flip {flip:#04x} at byte {index} must not decode"
        );
    }

    #[test]
    fn handoffs_never_exceed_transmissions(
        xs in prop::collection::vec(0.0..400.0f64, 1..80),
    ) {
        let mut net = grid_network(5, 250.0);
        let mut ok = 0u64;
        for (i, x) in xs.iter().enumerate() {
            let lu = LocationUpdate::new(MnId::new(1), i as f64, Point::new(*x, 0.0), i as u32);
            if net.transmit(&lu).is_ok() {
                ok += 1;
            }
        }
        prop_assert!(net.handoffs() <= ok.saturating_sub(1));
    }

    #[test]
    fn batch_decoders_never_panic_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..4096),
    ) {
        check_batch_decoders(&bytes);
    }

    #[test]
    fn batch_decoders_never_panic_on_record_shaped_bytes(bytes in record_shaped_bytes()) {
        check_batch_decoders(&bytes);
    }

    #[test]
    fn batch_decoders_never_panic_on_damaged_batches(
        xs in prop::collection::vec((any::<u32>(), -1.0e6..1.0e6f64), 0..40),
        cut in any::<usize>(),
        index in any::<usize>(),
        flip in any::<u8>(),
    ) {
        // A real batch of every record kind, then one byte flipped and
        // the tail cut at a random point.
        let records = mixed_records(&xs);
        let batch = encode_batch(&records);
        let mut payload = batch[4..].to_vec();
        if !payload.is_empty() {
            let at = index % payload.len();
            payload[at] ^= flip;
            payload.truncate(at + cut % (payload.len() - at + 1));
        }
        check_batch_decoders(&payload);
        prop_assert_eq!(decode_batch(&batch).unwrap(), records);
    }
}
