use std::error::Error;
use std::fmt;

/// Errors from constructing forecasters.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ForecastError {
    /// A smoothing factor must lie in `(0, 1]`.
    InvalidSmoothingFactor {
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for ForecastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForecastError::InvalidSmoothingFactor { value } => {
                write!(f, "smoothing factor must be in (0, 1], got {value}")
            }
        }
    }
}

impl Error for ForecastError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = ForecastError::InvalidSmoothingFactor { value: 1.5 };
        assert!(e.to_string().contains("1.5"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<ForecastError>();
    }
}
