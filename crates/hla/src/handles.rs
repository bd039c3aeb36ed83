use std::fmt;

macro_rules! handle_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl $name {
            /// Creates a handle from its raw value. Handles are issued by
            /// the RTI; constructing them manually is only useful in tests.
            #[must_use]
            pub const fn from_raw(raw: u32) -> Self {
                $name(raw)
            }

            /// The raw numeric handle.
            #[must_use]
            pub const fn raw(self) -> u32 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "#{}"), self.0)
            }
        }
    };
}

handle_type!(
    /// Identifies a joined federate within a federation execution.
    FederateHandle,
    "federate"
);
handle_type!(
    /// Identifies an object class declared in the federation object model.
    ObjectClassHandle,
    "class"
);
handle_type!(
    /// Identifies an attribute of an object class.
    AttributeHandle,
    "attribute"
);
handle_type!(
    /// Identifies a registered object instance.
    ObjectHandle,
    "object"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_round_trips() {
        let h = ObjectHandle::from_raw(7);
        assert_eq!(h.raw(), 7);
        assert_eq!(h, ObjectHandle::from_raw(7));
        assert_ne!(h, ObjectHandle::from_raw(8));
    }

    #[test]
    fn display_is_prefixed() {
        assert_eq!(FederateHandle::from_raw(1).to_string(), "federate#1");
        assert_eq!(AttributeHandle::from_raw(2).to_string(), "attribute#2");
    }

    #[test]
    fn handles_are_ordered() {
        assert!(ObjectHandle::from_raw(1) < ObjectHandle::from_raw(2));
    }
}
