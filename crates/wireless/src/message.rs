use std::fmt;

use serde::{Deserialize, Serialize};

use mobigrid_geo::Point;

use crate::WirelessError;

/// Identity of a mobile node.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct MnId(u32);

impl MnId {
    /// Creates an id from its raw value.
    #[must_use]
    pub const fn new(raw: u32) -> Self {
        MnId(raw)
    }

    /// The raw numeric id.
    #[must_use]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The id as a dense array index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mn#{}", self.0)
    }
}

impl From<u32> for MnId {
    fn from(raw: u32) -> Self {
        MnId(raw)
    }
}

/// CRC-32 (IEEE 802.3, reflected) lookup table, generated at compile time.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

const CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32/IEEE over `data` — the checksum protecting the LU wire frame.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// A location update (LU): the message a mobile node sends to report where
/// it is.
///
/// The entire evaluation of the paper is about how many of these can be
/// *not* sent. Each LU has a fixed 36-byte wire encoding
/// ([`LocationUpdate::WIRE_SIZE`]) — a 32-byte payload plus a CRC-32
/// trailer — so the traffic meters can report bytes as well as message
/// counts, and receivers can detect frames corrupted in flight.
///
/// # Examples
///
/// ```
/// use mobigrid_wireless::{LocationUpdate, MnId};
/// use mobigrid_geo::Point;
///
/// let lu = LocationUpdate::new(MnId::new(3), 12.0, Point::new(1.5, -2.5), 41);
/// let wire = lu.encode();
/// assert_eq!(wire.len(), LocationUpdate::WIRE_SIZE);
/// assert_eq!(LocationUpdate::decode(&wire).unwrap(), lu);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocationUpdate {
    /// The reporting node.
    pub node: MnId,
    /// Simulation time of the report, in seconds.
    pub time_s: f64,
    /// Reported position.
    pub position: Point,
    /// Per-node sequence number (wraps at `u32::MAX`).
    pub seq: u32,
}

impl LocationUpdate {
    /// Size of the wire encoding in bytes: node(4) + seq(4) + time(8) +
    /// x(8) + y(8) + crc32(4).
    pub const WIRE_SIZE: usize = 36;

    /// Size of the checksummed payload (everything before the CRC trailer).
    pub const PAYLOAD_SIZE: usize = 32;

    /// Creates a location update.
    #[must_use]
    pub const fn new(node: MnId, time_s: f64, position: Point, seq: u32) -> Self {
        LocationUpdate {
            node,
            time_s,
            position,
            seq,
        }
    }

    /// Serialises to the fixed 36-byte big-endian wire frame, on the
    /// stack: no heap traffic. The trailer bytes carry the CRC-32 of the
    /// 32-byte payload.
    #[must_use]
    pub fn encode(&self) -> [u8; Self::WIRE_SIZE] {
        let mut frame = [0u8; Self::WIRE_SIZE];
        frame[0..4].copy_from_slice(&self.node.raw().to_be_bytes());
        frame[4..8].copy_from_slice(&self.seq.to_be_bytes());
        frame[8..16].copy_from_slice(&self.time_s.to_be_bytes());
        frame[16..24].copy_from_slice(&self.position.x.to_be_bytes());
        frame[24..32].copy_from_slice(&self.position.y.to_be_bytes());
        let crc = crc32(&frame[..Self::PAYLOAD_SIZE]);
        frame[32..36].copy_from_slice(&crc.to_be_bytes());
        frame
    }

    /// Zero-copy parse of a wire frame produced by
    /// [`LocationUpdate::encode`]: reads the fields straight out of the
    /// slice without an owned intermediate buffer.
    ///
    /// The frame length must be exactly [`LocationUpdate::WIRE_SIZE`]:
    /// truncated *and* over-length buffers are rejected. A server ingesting
    /// frames from untrusted streams must not guess where a frame ends —
    /// trailing bytes mean the sender's framing is broken, and silently
    /// ignoring them would desynchronise every following frame.
    ///
    /// The payload CRC is verified before any field is interpreted, so a
    /// frame corrupted in flight is rejected rather than decoded into a
    /// plausible-looking bogus update.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::MalformedFrame`] for frames whose length is
    /// not exactly [`LocationUpdate::WIRE_SIZE`] (truncated, over-length or
    /// empty) and [`WirelessError::ChecksumMismatch`] when the CRC trailer
    /// does not match the payload.
    pub fn decode(frame: &[u8]) -> Result<Self, WirelessError> {
        if frame.len() != Self::WIRE_SIZE {
            return Err(WirelessError::MalformedFrame {
                got: frame.len(),
                needed: Self::WIRE_SIZE,
            });
        }
        let be_u32 = |r: std::ops::Range<usize>| {
            u32::from_be_bytes(frame[r].try_into().expect("4-byte field"))
        };
        let be_f64 = |r: std::ops::Range<usize>| {
            f64::from_be_bytes(frame[r].try_into().expect("8-byte field"))
        };
        let stored = be_u32(32..36);
        let computed = crc32(&frame[..Self::PAYLOAD_SIZE]);
        if stored != computed {
            return Err(WirelessError::ChecksumMismatch { stored, computed });
        }
        Ok(LocationUpdate {
            node: MnId::new(be_u32(0..4)),
            seq: be_u32(4..8),
            time_s: be_f64(8..16),
            position: Point::new(be_f64(16..24), be_f64(24..32)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trips() {
        let lu = LocationUpdate::new(MnId::new(42), 3.25, Point::new(-7.5, 1e6), 9);
        let wire = lu.encode();
        assert_eq!(wire.len(), LocationUpdate::WIRE_SIZE);
        assert_eq!(LocationUpdate::decode(&wire).unwrap(), lu);
        // The big-endian field layout: node, seq, time, x, y, CRC trailer.
        assert_eq!(wire[0..4], 42u32.to_be_bytes());
        assert_eq!(wire[4..8], 9u32.to_be_bytes());
        assert_eq!(wire[8..16], 3.25f64.to_be_bytes());
        assert_eq!(wire[16..24], (-7.5f64).to_be_bytes());
        assert_eq!(wire[24..32], 1e6f64.to_be_bytes());
        assert_eq!(wire[32..36], crc32(&wire[..32]).to_be_bytes());
    }

    #[test]
    fn decode_rejects_short_frames() {
        let err = LocationUpdate::decode(&[0u8; 10]).unwrap_err();
        assert_eq!(
            err,
            WirelessError::MalformedFrame {
                got: 10,
                needed: 36
            }
        );
    }

    #[test]
    fn decode_rejects_corrupted_frames() {
        let lu = LocationUpdate::new(MnId::new(8), 2.5, Point::new(10.0, -4.0), 3);
        let mut frame = lu.encode();
        frame[17] ^= 0x40; // flip one payload bit
        assert!(matches!(
            LocationUpdate::decode(&frame).unwrap_err(),
            WirelessError::ChecksumMismatch { .. }
        ));
        // A damaged trailer is caught too.
        let mut frame = lu.encode();
        frame[35] ^= 0x01;
        assert!(matches!(
            LocationUpdate::decode(&frame).unwrap_err(),
            WirelessError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn crc_matches_the_ieee_reference_vector() {
        // CRC-32/IEEE of "123456789" is the classic check value 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn decode_rejects_over_length_frames() {
        // A frame with trailing garbage means the sender's framing is
        // broken; accepting the prefix would desynchronise the stream.
        let lu = LocationUpdate::new(MnId::new(1), 1.0, Point::new(2.0, 3.0), 4);
        let mut wire = [0xFFu8; LocationUpdate::WIRE_SIZE + 8];
        wire[..LocationUpdate::WIRE_SIZE].copy_from_slice(&lu.encode());
        let err = LocationUpdate::decode(&wire).unwrap_err();
        assert_eq!(
            err,
            WirelessError::MalformedFrame {
                got: LocationUpdate::WIRE_SIZE + 8,
                needed: LocationUpdate::WIRE_SIZE
            }
        );
        // The exact-length prefix still decodes.
        let exact = &wire[..LocationUpdate::WIRE_SIZE];
        assert_eq!(LocationUpdate::decode(exact).unwrap(), lu);
    }

    #[test]
    fn decode_rejects_truncated_and_empty_frames() {
        let lu = LocationUpdate::new(MnId::new(9), 7.0, Point::new(-1.0, 8.0), 2);
        let wire = lu.encode();
        // Every strict prefix — including the empty frame — is malformed.
        for cut in [0usize, 1, 4, 35] {
            let err = LocationUpdate::decode(&wire[..cut]).unwrap_err();
            assert_eq!(
                err,
                WirelessError::MalformedFrame {
                    got: cut,
                    needed: LocationUpdate::WIRE_SIZE
                },
                "prefix of {cut} bytes must be rejected"
            );
        }
        assert!(LocationUpdate::decode(&[]).is_err());
    }

    #[test]
    fn mn_id_accessors() {
        let id = MnId::new(17);
        assert_eq!(id.raw(), 17);
        assert_eq!(id.index(), 17);
        assert_eq!(id.to_string(), "mn#17");
        assert_eq!(MnId::from(17u32), id);
    }
}
