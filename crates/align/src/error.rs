//! Error type for the alignment stage.

use fc_obs::BudgetError;
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
    /// An alignment charge did not fit the run's memory budget
    /// ([`crate::Overlapper::overlap_all_within`]): `align-index` before a
    /// batch of seed indexes is built, or `overlaps` as the list grows.
    Budget(BudgetError),
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
            AlignError::Budget(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AlignError {}

impl From<BudgetError> for AlignError {
    fn from(e: BudgetError) -> AlignError {
        AlignError::Budget(e)
    }
}
