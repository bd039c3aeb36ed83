use crate::{AttributeHandle, FedTime, ObjectClassHandle, ObjectHandle};

/// Attribute values carried by an update/reflect: `(attribute, bytes)` pairs
/// in attribute-handle order.
pub type AttributeValues = Vec<(AttributeHandle, Vec<u8>)>;

/// A callback evoked on a federate by [`Federate::tick`](crate::Federate::tick).
///
/// These mirror the HLA 1.3 `FederateAmbassador` services the paper's
/// simulation uses: object discovery, attribute reflection, time grants and
/// synchronization-point notifications.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Callback {
    /// A subscribed object instance was registered by another federate.
    DiscoverObject {
        /// The new instance.
        object: ObjectHandle,
        /// Its class.
        class: ObjectClassHandle,
        /// Its instance name.
        name: String,
    },
    /// A subscribed attribute update arrived.
    ReflectAttributes {
        /// The updated instance.
        object: ObjectHandle,
        /// The subscribed subset of the updated values.
        values: AttributeValues,
        /// The update's timestamp when it was sent timestamp-ordered.
        time: Option<FedTime>,
    },
    /// The federate's pending time-advance request was granted.
    TimeAdvanceGrant {
        /// The granted federation time.
        time: FedTime,
    },
    /// A synchronization point was announced to the federation.
    SyncPointAnnounced {
        /// The point's label.
        label: String,
    },
    /// Every joined federate achieved the synchronization point.
    FederationSynchronized {
        /// The point's label.
        label: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn callbacks_compare_by_value() {
        let a = Callback::TimeAdvanceGrant {
            time: FedTime::from_secs(1),
        };
        let b = Callback::TimeAdvanceGrant {
            time: FedTime::from_secs(1),
        };
        assert_eq!(a, b);
    }

    #[test]
    fn callback_is_send() {
        fn check<T: Send>() {}
        check::<Callback>();
    }
}
