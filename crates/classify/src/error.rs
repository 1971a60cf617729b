//! Error type for read classification and distribution analysis.

use fc_align::AlignError;
use std::fmt;

/// Errors produced while building classifiers or distribution matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassifyError {
    /// An invalid classifier parameter.
    Config {
        /// Offending parameter name (e.g. `k`).
        parameter: &'static str,
        /// What went wrong, including the offending value.
        message: String,
    },
    /// Two parallel inputs disagree in length.
    LengthMismatch {
        /// What was being compared (e.g. `labels`).
        what: &'static str,
        /// Observed length.
        got: usize,
        /// Required length.
        expected: usize,
    },
    /// An index (genus label, partition id, read) is out of range.
    OutOfRange {
        /// What kind of index (e.g. `label`, `partition`).
        what: &'static str,
        /// The offending index.
        index: usize,
        /// Exclusive upper bound.
        bound: usize,
    },
    /// The references do not fit one seed index
    /// ([`AlignError::IndexCapacity`]).
    Index(AlignError),
}

impl fmt::Display for ClassifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClassifyError::Config { parameter, message } => {
                write!(f, "invalid {parameter}: {message}")
            }
            ClassifyError::LengthMismatch {
                what,
                got,
                expected,
            } => {
                write!(f, "{what} length {got} != expected {expected}")
            }
            ClassifyError::OutOfRange { what, index, bound } => {
                write!(f, "{what} {index} out of range (< {bound} required)")
            }
            ClassifyError::Index(e) => write!(f, "references: {e}"),
        }
    }
}

impl std::error::Error for ClassifyError {}
