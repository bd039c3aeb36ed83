use std::error::Error;
use std::fmt;

use crate::FedTime;

/// Errors returned by RTI services.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RtiError {
    /// A federation execution with this name already exists.
    FederationAlreadyExists {
        /// The federation name.
        name: String,
    },
    /// No federation execution with this name exists.
    UnknownFederation {
        /// The requested name.
        name: String,
    },
    /// The federate handle is not joined to this federation.
    NotJoined,
    /// A FOM handle (object class or attribute) is unknown.
    UnknownHandle,
    /// The object instance is unknown.
    UnknownObject,
    /// The federate tried to update an object it does not own, or update a
    /// class it has not published.
    NotPublished,
    /// A name was declared twice in the FOM.
    DuplicateName {
        /// The offending name.
        name: String,
    },
    /// Time regulation/constraint was enabled twice.
    TimeAlreadyEnabled,
    /// A time-advance request went backwards, or a timestamped message
    /// violated the sender's lookahead guarantee.
    InvalidTime {
        /// The offending timestamp.
        requested: FedTime,
        /// The earliest legal timestamp.
        minimum: FedTime,
    },
    /// A time-advance request was issued while one is already pending.
    AdvanceAlreadyPending,
    /// A synchronization label was registered twice, or achieved without
    /// being announced.
    InvalidSyncPoint {
        /// The offending label.
        label: String,
    },
    /// A federate panicked while it held the RTI core, so the core's state
    /// may be half-updated; every later service call fails with this.
    Poisoned,
}

impl fmt::Display for RtiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtiError::FederationAlreadyExists { name } => {
                write!(f, "federation execution already exists: {name}")
            }
            RtiError::UnknownFederation { name } => write!(f, "unknown federation: {name}"),
            RtiError::NotJoined => write!(f, "federate is not joined"),
            RtiError::UnknownHandle => write!(f, "unknown FOM handle"),
            RtiError::UnknownObject => write!(f, "unknown object instance"),
            RtiError::NotPublished => write!(f, "class not published or object not owned"),
            RtiError::DuplicateName { name } => write!(f, "name declared twice: {name}"),
            RtiError::TimeAlreadyEnabled => write!(f, "time service already enabled"),
            RtiError::InvalidTime { requested, minimum } => {
                write!(f, "invalid time {requested}: must be at least {minimum}")
            }
            RtiError::AdvanceAlreadyPending => {
                write!(f, "time advance request already pending")
            }
            RtiError::InvalidSyncPoint { label } => {
                write!(f, "invalid synchronization point: {label}")
            }
            RtiError::Poisoned => write!(f, "a federate panicked while holding the RTI"),
        }
    }
}

impl Error for RtiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_specifics() {
        let e = RtiError::InvalidTime {
            requested: FedTime::from_secs(1),
            minimum: FedTime::from_secs(2),
        };
        let msg = e.to_string();
        assert!(msg.contains("1.0"));
        assert!(msg.contains("2.0"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync + 'static>() {}
        check::<RtiError>();
    }
}
