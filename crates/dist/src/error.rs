//! Typed errors of the distributed stage.

use crate::fault::PhaseId;
use std::fmt;

/// Everything that can go wrong while setting up or running the distributed
/// pipeline. Replaces the earlier bare-`String` errors and the panic on a
/// zero-rank cluster so callers can match on failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistError {
    /// A cluster or partition count of zero was requested.
    NoRanks,
    /// The partition vector does not cover the hybrid node set.
    PartitionLengthMismatch {
        /// Supplied partition-vector length.
        got: usize,
        /// Hybrid node count it must equal.
        expected: usize,
    },
    /// The contig list does not have one sequence per hybrid node.
    ContigCountMismatch {
        /// Supplied contig count.
        got: usize,
        /// Hybrid node count it must equal.
        expected: usize,
    },
    /// A partition id exceeds the declared partition count.
    PartitionIdOutOfRange {
        /// The offending id.
        id: u32,
        /// Number of partitions.
        k: usize,
    },
    /// Every rank died (or was presumed dead) before a phase could finish —
    /// there is nobody left to re-run the lost work on.
    AllRanksDead {
        /// Phase in which the cluster was lost.
        phase: PhaseId,
    },
    /// The retry policy is unusable (e.g. zero attempts).
    InvalidRetryPolicy(String),
    /// The fault-rate table is unusable (probability outside `[0, 1]` or a
    /// slowdown factor below 1).
    InvalidFaultRates(String),
    /// A partition's result never reached the master even after recovery —
    /// the invariant "the recovery loop leaves no partition pending" broke.
    LostPartition {
        /// Phase in which the partition was lost.
        phase: PhaseId,
        /// The partition whose result is missing.
        partition: usize,
    },
    /// Traversal produced paths that do not cover the live graph exactly
    /// once — the pipeline's structural post-condition was violated.
    PathCoverViolation(String),
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::NoRanks => write!(f, "cluster needs at least one rank"),
            DistError::PartitionLengthMismatch { got, expected } => {
                write!(f, "partition length {got} != hybrid node count {expected}")
            }
            DistError::ContigCountMismatch { got, expected } => {
                write!(f, "{got} node contigs != hybrid node count {expected}")
            }
            DistError::PartitionIdOutOfRange { id, k } => {
                write!(f, "partition id {id} out of range for k = {k}")
            }
            DistError::AllRanksDead { phase } => {
                write!(
                    f,
                    "all ranks lost during {}; nothing left to recover on",
                    phase.name()
                )
            }
            DistError::InvalidRetryPolicy(m) => write!(f, "invalid retry policy: {m}"),
            DistError::InvalidFaultRates(m) => write!(f, "invalid fault rates: {m}"),
            DistError::LostPartition { phase, partition } => {
                write!(
                    f,
                    "partition {partition} unrecovered after {}",
                    phase.name()
                )
            }
            DistError::PathCoverViolation(m) => {
                write!(f, "traversal post-condition violated: {m}")
            }
        }
    }
}

impl std::error::Error for DistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DistError::PartitionLengthMismatch {
            got: 3,
            expected: 5,
        };
        assert_eq!(e.to_string(), "partition length 3 != hybrid node count 5");
        let e = DistError::AllRanksDead {
            phase: PhaseId::ErrorRemoval,
        };
        assert!(e.to_string().contains("error_removal"));
        let e = DistError::PathCoverViolation("node 3 missing".into());
        assert!(e.to_string().contains("node 3 missing"));
    }

    #[test]
    fn implements_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&DistError::NoRanks);
    }
}
