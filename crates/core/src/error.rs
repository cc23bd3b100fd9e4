//! Error type for monitor construction and queries.

use std::fmt;

/// Errors returned by fallible monitor operations.
///
/// Marked `#[non_exhaustive]`: future spec/artifact format versions may
/// add variants without breaking downstream matches.
#[derive(Debug)]
#[non_exhaustive]
pub enum MonitorError {
    /// A vector has the wrong dimension for the network or monitor.
    DimensionMismatch {
        /// What was being checked.
        context: String,
        /// Expected dimension.
        expected: usize,
        /// Provided dimension.
        actual: usize,
    },
    /// The monitor cannot be built from an empty training set.
    EmptyTrainingSet,
    /// A configuration value is invalid (layer out of range, kp ≥ k, …).
    InvalidConfig(String),
    /// An external pattern source (e.g. an on-disk store) failed or is
    /// unusable in the requested role.
    ExternalSource(String),
    /// An input held a NaN or infinite value where only finite ones are
    /// sound (training samples, absorbed inputs, engine queries), or a
    /// finite query's forward pass overflowed to one.
    NonFinite {
        /// Which input and coordinate, and the value found.
        context: String,
    },
}

impl fmt::Display for MonitorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorError::DimensionMismatch {
                context,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "dimension mismatch in {context}: expected {expected}, got {actual}"
                )
            }
            MonitorError::EmptyTrainingSet => {
                write!(f, "monitor construction needs a non-empty training set")
            }
            MonitorError::InvalidConfig(msg) => write!(f, "invalid monitor configuration: {msg}"),
            MonitorError::ExternalSource(msg) => write!(f, "external pattern source: {msg}"),
            MonitorError::NonFinite { context } => write!(f, "non-finite value in {context}"),
        }
    }
}

impl std::error::Error for MonitorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MonitorError::DimensionMismatch {
            context: "query input".into(),
            expected: 4,
            actual: 3,
        };
        assert_eq!(
            e.to_string(),
            "dimension mismatch in query input: expected 4, got 3"
        );
        assert!(MonitorError::EmptyTrainingSet
            .to_string()
            .contains("non-empty"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MonitorError>();
    }
}
