//! Error type of the chain diagnostics.

use std::fmt;

/// Errors produced by the chain diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub enum McmcError {
    /// A diagnostic was requested on a trace that is too short to support it.
    InsufficientSamples {
        /// Samples available.
        available: usize,
        /// Samples required.
        required: usize,
    },
}

impl fmt::Display for McmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McmcError::InsufficientSamples { available, required } => write!(
                f,
                "insufficient samples for diagnostic: have {available}, need at least {required}"
            ),
        }
    }
}

impl std::error::Error for McmcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = McmcError::InsufficientSamples { available: 1, required: 10 };
        assert!(e.to_string().contains("have 1"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&McmcError::InsufficientSamples { available: 0, required: 1 });
    }
}
