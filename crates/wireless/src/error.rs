use std::error::Error;
use std::fmt;

use mobigrid_geo::Point;

/// Errors from the wireless access layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WirelessError {
    /// No gateway covers the transmitting node's position.
    NoCoverage {
        /// Where the node attempted to transmit from.
        position: Point,
    },
    /// A received frame was too short or malformed.
    MalformedFrame {
        /// Bytes received.
        got: usize,
        /// Bytes required.
        needed: usize,
    },
    /// A received frame's checksum did not match its payload — the frame
    /// was corrupted in flight and must be discarded.
    ChecksumMismatch {
        /// Checksum stored in the frame trailer.
        stored: u32,
        /// Checksum recomputed over the received payload.
        computed: u32,
    },
    /// An outage window's bounds were not finite numbers.
    NonFiniteOutageWindow {
        /// Requested window start, in seconds.
        start_s: f64,
        /// Requested window end, in seconds.
        end_s: f64,
    },
    /// An outage window was empty or reversed (`end_s <= start_s`).
    EmptyOutageWindow {
        /// Requested window start, in seconds.
        start_s: f64,
        /// Requested window end, in seconds.
        end_s: f64,
    },
    /// A fault-plan probability was outside `[0, 1]` or not finite.
    InvalidFaultRate {
        /// Which rate was rejected.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A fault-plan or retry-policy parameter was structurally invalid.
    InvalidFaultParameter {
        /// What was wrong.
        reason: &'static str,
    },
    /// An ingest batch declared a payload larger than the receiver's
    /// limit — rejected before any allocation, so a hostile or broken
    /// length prefix cannot make the server buffer arbitrary amounts.
    BatchTooLarge {
        /// Declared payload size in bytes.
        got: usize,
        /// The receiver's limit in bytes.
        max: usize,
    },
    /// An ingest batch contained a record with an opcode this receiver
    /// does not understand; the batch cannot be framed past it.
    UnknownOpcode {
        /// The offending opcode byte.
        opcode: u8,
    },
    /// An ingest batch named a node at or beyond the receiver's declared
    /// node capacity; the whole batch is refused, so a hostile id cannot
    /// make the receiver grow its per-node storage.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// The receiver's node capacity (valid ids are `0..capacity`).
        capacity: usize,
    },
}

impl fmt::Display for WirelessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WirelessError::NoCoverage { position } => {
                write!(f, "no gateway coverage at {position}")
            }
            WirelessError::MalformedFrame { got, needed } => {
                write!(f, "malformed frame: got {got} bytes, needed {needed}")
            }
            WirelessError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "frame checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            WirelessError::NonFiniteOutageWindow { start_s, end_s } => {
                write!(f, "outage window bounds must be finite: [{start_s}, {end_s})")
            }
            WirelessError::EmptyOutageWindow { start_s, end_s } => {
                write!(
                    f,
                    "outage window must be a non-empty forward interval: [{start_s}, {end_s})"
                )
            }
            WirelessError::InvalidFaultRate { name, value } => {
                write!(f, "fault rate {name} must be in [0, 1], got {value}")
            }
            WirelessError::InvalidFaultParameter { reason } => {
                write!(f, "invalid fault parameter: {reason}")
            }
            WirelessError::BatchTooLarge { got, max } => {
                write!(f, "ingest batch of {got} bytes exceeds the {max}-byte limit")
            }
            WirelessError::UnknownOpcode { opcode } => {
                write!(f, "unknown ingest record opcode {opcode:#04x}")
            }
            WirelessError::NodeOutOfRange { node, capacity } => {
                write!(f, "node {node} is beyond the {capacity}-node capacity")
            }
        }
    }
}

impl Error for WirelessError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_key_facts() {
        let e = WirelessError::MalformedFrame { got: 3, needed: 36 };
        assert!(e.to_string().contains("3"));
        assert!(e.to_string().contains("36"));
    }

    #[test]
    fn checksum_message_shows_both_values() {
        let e = WirelessError::ChecksumMismatch {
            stored: 0xDEAD_BEEF,
            computed: 0x0BAD_F00D,
        };
        let s = e.to_string();
        assert!(s.contains("0xdeadbeef"));
        assert!(s.contains("0x0badf00d"));
    }

    #[test]
    fn outage_window_messages_show_bounds() {
        let e = WirelessError::EmptyOutageWindow {
            start_s: 5.0,
            end_s: 5.0,
        };
        assert!(e.to_string().contains("non-empty"));
        let e = WirelessError::NonFiniteOutageWindow {
            start_s: f64::NAN,
            end_s: 1.0,
        };
        assert!(e.to_string().contains("finite"));
    }
}
