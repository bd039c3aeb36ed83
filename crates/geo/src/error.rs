use std::error::Error;
use std::fmt;

/// Errors produced when constructing geometric values from invalid input.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GeoError {
    /// A polyline needs at least two vertices to describe a path.
    PolylineTooShort {
        /// Number of vertices that were supplied.
        got: usize,
    },
    /// A coordinate was NaN or infinite.
    NonFiniteCoordinate,
    /// A rectangle was given a min corner that exceeds its max corner.
    InvertedRect,
}

impl fmt::Display for GeoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeoError::PolylineTooShort { got } => {
                write!(f, "polyline requires at least 2 vertices, got {got}")
            }
            GeoError::NonFiniteCoordinate => write!(f, "coordinate was NaN or infinite"),
            GeoError::InvertedRect => write!(f, "rectangle min corner exceeds max corner"),
        }
    }
}

impl Error for GeoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let msg = GeoError::PolylineTooShort { got: 1 }.to_string();
        assert_eq!(msg, "polyline requires at least 2 vertices, got 1");
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GeoError>();
    }
}
