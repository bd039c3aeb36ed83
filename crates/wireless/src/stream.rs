//! Length-prefixed ingest batches: the broker service's wire protocol.
//!
//! A live broker ([`mobigrid-broker-serve`]) is fed the exact operation
//! stream the in-sim broker sees: received LU frames, filtered-update
//! notes, lost-update notes and tick boundaries. This module frames that
//! stream for transport — over TCP or an in-process channel — as
//! *batches*: a 4-byte big-endian payload-length prefix followed by a
//! concatenation of self-describing records.
//!
//! ```text
//! batch   := len:u32be payload
//! payload := record*
//! record  := 0x01 lu-frame[36]            received location update
//!          | 0x02 node:u32be time:f64be   filtered (suppressed) update
//!          | 0x03 node:u32be time:f64be   expected update lost in flight
//!          | 0x04 tick:u64be time:f64be   end-of-tick marker
//!          | 0x05 tick:u64be batch_seq:u64be sent_unix_us:u64be dt_s:f64be
//!                                         batch span stamp (tracing)
//! ```
//!
//! The `0x05` batch-span stamp is an optional tracing record a sender may
//! prepend to a batch: it names the client tick and batch sequence the
//! following records belong to, the wall-clock send time (`0` = unknown,
//! keeps deterministic tests byte-stable), and the simulation tick length
//! `dt_s` — which lets the receiver map any embedded LU's `time_s` back to
//! its *generation tick*, the flight-recorder `(node, seq)` identity, so a
//! client-side trace and a server-side trace stitch into one causal chain.
//! Receivers that don't trace simply skip it; it maps to no broker
//! operation.
//!
//! The LU frame inside an `0x01` record is the unmodified 36-byte CRC-32
//! wire encoding ([`LocationUpdate::WIRE_SIZE`]); decoding re-verifies the
//! checksum, so corruption anywhere between the sim and the server is
//! caught at the ingest boundary. The length prefix is validated against
//! [`MAX_BATCH_BYTES`] *before* any allocation, so a hostile prefix cannot
//! make a receiver buffer arbitrary memory.
//!
//! Replaying a batch stream's records in order against a fresh
//! [`GridBroker`](../../mobigrid_adf/struct.GridBroker.html) reproduces the
//! originating broker's state bit for bit — that equivalence is pinned by
//! the serve crate's golden-parity test.
//!
//! [`mobigrid-broker-serve`]: ../../mobigrid_broker_serve/index.html

use crate::{LocationUpdate, MnId, WirelessError};

/// Largest payload a receiver will accept in one batch (1 MiB — about
/// 28k LU records, far above anything one tick produces).
pub const MAX_BATCH_BYTES: usize = 1 << 20;

/// Size of the batch length prefix in bytes.
pub const BATCH_PREFIX_SIZE: usize = 4;

const OP_UPDATE: u8 = 0x01;
const OP_FILTERED: u8 = 0x02;
const OP_LOST: u8 = 0x03;
const OP_TICK_END: u8 = 0x04;
const OP_BATCH_SPAN: u8 = 0x05;

/// One record of the broker ingest stream — exactly the operations a
/// [`GridBroker`](../../mobigrid_adf/struct.GridBroker.html) applies
/// (its `apply` takes one record), plus the framing markers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IngestRecord {
    /// A location update that reached the broker: stored and fed to the
    /// node's estimator. Channel duplicates appear twice in the stream;
    /// the broker's own dedup decides, exactly as in-sim.
    Update(LocationUpdate),
    /// An update the filter suppressed: the broker stores the
    /// estimator's position for the node.
    Filtered {
        /// The suppressed node.
        node: MnId,
        /// Simulation time of the suppressed update, in seconds.
        time_s: f64,
    },
    /// An update that was transmitted but never arrived: the broker
    /// stores a degraded estimate and bumps the node's staleness.
    Lost {
        /// The node whose update was lost.
        node: MnId,
        /// Simulation time of the lost update, in seconds.
        time_s: f64,
    },
    /// End of one simulation tick — a framing marker, not a broker
    /// operation. Lets the receiver track replay progress and pace.
    TickEnd {
        /// The tick that just completed.
        tick: u64,
        /// Simulation time at the end of that tick, in seconds.
        time_s: f64,
    },
    /// An optional tracing stamp a sender may prepend to a batch — a
    /// framing marker, not a broker operation. Gives the batch a
    /// cross-process span identity so client and server flight-recorder
    /// traces stitch together.
    BatchSpan {
        /// The client tick the batch's records were produced on.
        tick: u64,
        /// The sender's monotonic batch sequence number.
        batch_seq: u64,
        /// Wall-clock send time in microseconds since the Unix epoch, or
        /// `0` when unknown (deterministic replays use 0 so recorded
        /// traces stay byte-stable).
        sent_unix_us: u64,
        /// Simulation tick length in seconds; receivers use it to map an
        /// LU's `time_s` back to its generation tick.
        dt_s: f64,
    },
}

impl IngestRecord {
    /// The node a broker operation applies to; `None` for the framing
    /// markers ([`IngestRecord::TickEnd`], [`IngestRecord::BatchSpan`]).
    #[must_use]
    pub const fn node(&self) -> Option<MnId> {
        match self {
            IngestRecord::Update(lu) => Some(lu.node),
            IngestRecord::Filtered { node, .. } | IngestRecord::Lost { node, .. } => Some(*node),
            IngestRecord::TickEnd { .. } | IngestRecord::BatchSpan { .. } => None,
        }
    }

    /// The record's encoded size in bytes (opcode included).
    #[must_use]
    pub const fn encoded_len(&self) -> usize {
        match self {
            IngestRecord::Update(_) => 1 + LocationUpdate::WIRE_SIZE,
            IngestRecord::Filtered { .. } | IngestRecord::Lost { .. } => 1 + 4 + 8,
            IngestRecord::TickEnd { .. } => 1 + 8 + 8,
            IngestRecord::BatchSpan { .. } => 1 + 8 + 8 + 8 + 8,
        }
    }

    /// Appends the record's wire encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            IngestRecord::Update(lu) => {
                out.push(OP_UPDATE);
                out.extend_from_slice(&lu.encode());
            }
            IngestRecord::Filtered { node, time_s } => {
                out.push(OP_FILTERED);
                out.extend_from_slice(&node.raw().to_be_bytes());
                out.extend_from_slice(&time_s.to_be_bytes());
            }
            IngestRecord::Lost { node, time_s } => {
                out.push(OP_LOST);
                out.extend_from_slice(&node.raw().to_be_bytes());
                out.extend_from_slice(&time_s.to_be_bytes());
            }
            IngestRecord::TickEnd { tick, time_s } => {
                out.push(OP_TICK_END);
                out.extend_from_slice(&tick.to_be_bytes());
                out.extend_from_slice(&time_s.to_be_bytes());
            }
            IngestRecord::BatchSpan {
                tick,
                batch_seq,
                sent_unix_us,
                dt_s,
            } => {
                out.push(OP_BATCH_SPAN);
                out.extend_from_slice(&tick.to_be_bytes());
                out.extend_from_slice(&batch_seq.to_be_bytes());
                out.extend_from_slice(&sent_unix_us.to_be_bytes());
                out.extend_from_slice(&dt_s.to_be_bytes());
            }
        }
    }
}

/// Encodes a complete batch — 4-byte big-endian payload-length prefix
/// followed by every record's encoding.
///
/// # Panics
///
/// Panics if the encoded payload would exceed [`MAX_BATCH_BYTES`]; senders
/// are expected to split their stream into tick-sized batches, which sit
/// orders of magnitude below the limit.
#[must_use]
pub fn encode_batch(records: &[IngestRecord]) -> Vec<u8> {
    let payload_len: usize = records.iter().map(IngestRecord::encoded_len).sum();
    assert!(
        payload_len <= MAX_BATCH_BYTES,
        "batch payload of {payload_len} bytes exceeds MAX_BATCH_BYTES"
    );
    let mut out = Vec::with_capacity(BATCH_PREFIX_SIZE + payload_len);
    out.extend_from_slice(&(payload_len as u32).to_be_bytes());
    for record in records {
        record.encode_into(&mut out);
    }
    out
}

/// Validates a batch length prefix and returns the payload size to read.
///
/// # Errors
///
/// Returns [`WirelessError::BatchTooLarge`] when the declared payload
/// exceeds [`MAX_BATCH_BYTES`]. Callers must check *before* allocating a
/// read buffer.
pub fn payload_len(prefix: [u8; BATCH_PREFIX_SIZE]) -> Result<usize, WirelessError> {
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_BATCH_BYTES {
        return Err(WirelessError::BatchTooLarge {
            got: len,
            max: MAX_BATCH_BYTES,
        });
    }
    Ok(len)
}

/// Decodes a batch payload (the bytes *after* the length prefix) into its
/// records. An empty payload is a valid empty batch (a keep-alive).
///
/// # Errors
///
/// - [`WirelessError::UnknownOpcode`] for an unrecognised record opcode;
/// - [`WirelessError::MalformedFrame`] when a record body is truncated by
///   the payload boundary;
/// - [`WirelessError::ChecksumMismatch`] when an LU record's CRC-32
///   trailer does not match its payload (corruption in transit).
pub fn decode_payload(payload: &[u8]) -> Result<Vec<IngestRecord>, WirelessError> {
    let mut records = Vec::new();
    let mut at = 0usize;
    while at < payload.len() {
        let opcode = payload[at];
        at += 1;
        let rest = &payload[at..];
        let take = |n: usize| -> Result<&[u8], WirelessError> {
            rest.get(..n).ok_or(WirelessError::MalformedFrame {
                got: rest.len(),
                needed: n,
            })
        };
        match opcode {
            OP_UPDATE => {
                let frame = take(LocationUpdate::WIRE_SIZE)?;
                records.push(IngestRecord::Update(LocationUpdate::decode(frame)?));
                at += LocationUpdate::WIRE_SIZE;
            }
            OP_FILTERED | OP_LOST => {
                let body = take(12)?;
                let node = MnId::new(u32::from_be_bytes(body[0..4].try_into().expect("4 bytes")));
                let time_s = f64::from_be_bytes(body[4..12].try_into().expect("8 bytes"));
                records.push(if opcode == OP_FILTERED {
                    IngestRecord::Filtered { node, time_s }
                } else {
                    IngestRecord::Lost { node, time_s }
                });
                at += 12;
            }
            OP_TICK_END => {
                let body = take(16)?;
                let tick = u64::from_be_bytes(body[0..8].try_into().expect("8 bytes"));
                let time_s = f64::from_be_bytes(body[8..16].try_into().expect("8 bytes"));
                records.push(IngestRecord::TickEnd { tick, time_s });
                at += 16;
            }
            OP_BATCH_SPAN => {
                let body = take(32)?;
                let tick = u64::from_be_bytes(body[0..8].try_into().expect("8 bytes"));
                let batch_seq = u64::from_be_bytes(body[8..16].try_into().expect("8 bytes"));
                let sent_unix_us = u64::from_be_bytes(body[16..24].try_into().expect("8 bytes"));
                let dt_s = f64::from_be_bytes(body[24..32].try_into().expect("8 bytes"));
                records.push(IngestRecord::BatchSpan {
                    tick,
                    batch_seq,
                    sent_unix_us,
                    dt_s,
                });
                at += 32;
            }
            opcode => return Err(WirelessError::UnknownOpcode { opcode }),
        }
    }
    Ok(records)
}

/// Walks a batch payload verifying every embedded LU record's CRC-32
/// trailer without materialising records, and returns how many LU frames
/// it checked. This duplicates the checksum work [`decode_payload`] does —
/// it exists so a self-profiling receiver can time the CRC pass as its
/// own phase, separate from structural decoding.
///
/// # Errors
///
/// Exactly what [`decode_payload`] rejects: unknown opcodes, truncated
/// records and checksum mismatches.
pub fn verify_batch_crcs(payload: &[u8]) -> Result<u64, WirelessError> {
    let mut at = 0usize;
    let mut checked = 0u64;
    while at < payload.len() {
        let opcode = payload[at];
        at += 1;
        let rest = &payload[at..];
        let body_len = match opcode {
            OP_UPDATE => {
                let frame =
                    rest.get(..LocationUpdate::WIRE_SIZE)
                        .ok_or(WirelessError::MalformedFrame {
                            got: rest.len(),
                            needed: LocationUpdate::WIRE_SIZE,
                        })?;
                LocationUpdate::decode(frame)?;
                checked += 1;
                LocationUpdate::WIRE_SIZE
            }
            OP_FILTERED | OP_LOST => 12,
            OP_TICK_END => 16,
            OP_BATCH_SPAN => 32,
            opcode => return Err(WirelessError::UnknownOpcode { opcode }),
        };
        if rest.len() < body_len {
            return Err(WirelessError::MalformedFrame {
                got: rest.len(),
                needed: body_len,
            });
        }
        at += body_len;
    }
    Ok(checked)
}

/// Decodes a complete batch (prefix + payload), checking that the prefix
/// matches the buffer. Convenience for in-process transports that hand
/// whole batches around; socket readers use [`payload_len`] +
/// [`decode_payload`] on their own buffers.
///
/// # Errors
///
/// Everything [`payload_len`] and [`decode_payload`] reject, plus
/// [`WirelessError::MalformedFrame`] when the buffer does not contain
/// exactly the declared payload.
pub fn decode_batch(batch: &[u8]) -> Result<Vec<IngestRecord>, WirelessError> {
    let prefix: [u8; BATCH_PREFIX_SIZE] = batch
        .get(..BATCH_PREFIX_SIZE)
        .map(|p| p.try_into().expect("prefix-sized slice"))
        .ok_or(WirelessError::MalformedFrame {
            got: batch.len(),
            needed: BATCH_PREFIX_SIZE,
        })?;
    let declared = payload_len(prefix)?;
    let payload = &batch[BATCH_PREFIX_SIZE..];
    if payload.len() != declared {
        return Err(WirelessError::MalformedFrame {
            got: payload.len(),
            needed: declared,
        });
    }
    decode_payload(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobigrid_geo::Point;

    fn sample_records() -> Vec<IngestRecord> {
        vec![
            IngestRecord::BatchSpan {
                tick: 1,
                batch_seq: 9,
                sent_unix_us: 1_700_000_000_000_000,
                dt_s: 1.0,
            },
            IngestRecord::Update(LocationUpdate::new(
                MnId::new(7),
                1.0,
                Point::new(3.5, -2.25),
                4,
            )),
            IngestRecord::Filtered {
                node: MnId::new(12),
                time_s: 1.0,
            },
            IngestRecord::Lost {
                node: MnId::new(3),
                time_s: 1.0,
            },
            IngestRecord::TickEnd {
                tick: 1,
                time_s: 1.0,
            },
        ]
    }

    #[test]
    fn batch_round_trips() {
        let records = sample_records();
        let batch = encode_batch(&records);
        assert_eq!(decode_batch(&batch).unwrap(), records);
        // Prefix + payload split decodes identically.
        let declared = payload_len(batch[..4].try_into().unwrap()).unwrap();
        assert_eq!(declared, batch.len() - BATCH_PREFIX_SIZE);
        assert_eq!(decode_payload(&batch[4..]).unwrap(), records);
    }

    #[test]
    fn empty_batch_is_a_valid_keepalive() {
        let batch = encode_batch(&[]);
        assert_eq!(batch, vec![0, 0, 0, 0]);
        assert_eq!(decode_batch(&batch).unwrap(), vec![]);
    }

    #[test]
    fn oversize_prefix_is_rejected() {
        let prefix = ((MAX_BATCH_BYTES + 1) as u32).to_be_bytes();
        assert_eq!(
            payload_len(prefix).unwrap_err(),
            WirelessError::BatchTooLarge {
                got: MAX_BATCH_BYTES + 1,
                max: MAX_BATCH_BYTES
            }
        );
        assert!(payload_len((MAX_BATCH_BYTES as u32).to_be_bytes()).is_ok());
    }

    #[test]
    fn truncated_records_are_rejected() {
        let records = sample_records();
        let batch = encode_batch(&records);
        // Record boundaries within the payload; a cut exactly on one is a
        // valid (shorter) batch, a cut anywhere else truncates a record.
        let mut boundaries = vec![0usize];
        for record in &records {
            boundaries.push(boundaries.last().unwrap() + record.encoded_len());
        }
        for cut in 0..(batch.len() - BATCH_PREFIX_SIZE) {
            let payload = &batch[BATCH_PREFIX_SIZE..BATCH_PREFIX_SIZE + cut];
            if boundaries.contains(&cut) {
                assert!(decode_payload(payload).is_ok(), "boundary cut {cut}");
            } else {
                assert!(
                    decode_payload(payload).is_err(),
                    "payload cut at {cut} must not decode"
                );
            }
        }
    }

    #[test]
    fn unknown_opcode_is_rejected() {
        let err = decode_payload(&[0x7F]).unwrap_err();
        assert_eq!(err, WirelessError::UnknownOpcode { opcode: 0x7F });
    }

    #[test]
    fn corrupted_lu_record_is_rejected() {
        let records = sample_records();
        let mut batch = encode_batch(&records);
        // Flip one payload byte inside the embedded LU frame (the second
        // record, after the 33-byte batch span and both opcodes).
        let lu_at = BATCH_PREFIX_SIZE + records[0].encoded_len() + 1 + 10;
        batch[lu_at] ^= 0x20;
        assert!(matches!(
            decode_batch(&batch).unwrap_err(),
            WirelessError::ChecksumMismatch { .. }
        ));
        assert!(matches!(
            verify_batch_crcs(&batch[BATCH_PREFIX_SIZE..]).unwrap_err(),
            WirelessError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn crc_verify_pass_counts_lu_frames() {
        let batch = encode_batch(&sample_records());
        assert_eq!(verify_batch_crcs(&batch[BATCH_PREFIX_SIZE..]).unwrap(), 1);
        assert_eq!(verify_batch_crcs(&[]).unwrap(), 0);
        assert!(verify_batch_crcs(&[0x7F]).is_err());
        // Truncated mid-record.
        assert!(verify_batch_crcs(&batch[BATCH_PREFIX_SIZE..BATCH_PREFIX_SIZE + 5]).is_err());
    }

    #[test]
    fn mismatched_prefix_is_rejected() {
        let mut batch = encode_batch(&sample_records());
        batch[3] ^= 0x01; // declared length no longer matches the buffer
        assert!(matches!(
            decode_batch(&batch).unwrap_err(),
            WirelessError::MalformedFrame { .. }
        ));
        assert!(matches!(
            decode_batch(&[0, 0]).unwrap_err(),
            WirelessError::MalformedFrame { got: 2, needed: 4 }
        ));
    }

    #[test]
    fn encoded_len_matches_the_encoder() {
        for record in sample_records() {
            let mut out = Vec::new();
            record.encode_into(&mut out);
            assert_eq!(out.len(), record.encoded_len(), "{record:?}");
        }
    }
}
