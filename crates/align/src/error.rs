//! Error type for the alignment stage.

use std::fmt;

/// Errors produced while configuring or running the overlap stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlignError {
    /// An invalid overlap-stage parameter (see [`crate::OverlapConfig`]).
    Config {
        /// Offending parameter name (e.g. `k`).
        parameter: &'static str,
        /// What went wrong, including the offending value.
        message: String,
    },
    /// A read subset breaks the seed index's capacity rule
    /// ([`crate::KmerIndex::check_capacity`]).
    IndexCapacity {
        /// Reads in the subset.
        reads: usize,
        /// Bases in its longest read.
        longest: usize,
    },
}

impl fmt::Display for AlignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlignError::Config { parameter, message } => {
                write!(f, "invalid {parameter}: {message}")
            }
            AlignError::IndexCapacity { reads, longest } => write!(
                f,
                "index capacity: {reads} reads of up to {longest} bases \
                 do not fit u32 (read, offset) entries and positions"
            ),
        }
    }
}

impl std::error::Error for AlignError {}
