//! Assembler configuration and error type.

use fc_align::{AlignError, OverlapConfig};
use fc_dist::{DistError, DistributedConfig, FaultRates};
use fc_graph::{CoarsenConfig, GraphError, LayoutConfig};
use fc_obs::ObsOptions;
use fc_partition::PartitionError;
use fc_seq::{SeqError, TrimConfig};
use std::fmt;

/// Deterministic fault injection for the distributed stage. When set on
/// [`FocusConfig::fault`], a seeded [`FaultPlan`](fc_dist::FaultPlan) is
/// generated for each distributed run: same seed and rates ⇒ the identical
/// schedule of crashes, drops, delays and stragglers, and therefore a
/// bit-identical [`FaultReport`](fc_dist::FaultReport).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjection {
    /// Seed of the injection schedule.
    pub seed: u64,
    /// Per-(phase, rank) fault probabilities and magnitudes.
    pub rates: FaultRates,
}

/// Full configuration of the Focus pipeline, one field per stage. A value
/// no caller sets is a constant beside the code that reads it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FocusConfig {
    /// Read preprocessing (§II-A).
    pub trim: TrimConfig,
    /// Number of read subsets for the parallel aligner (§II-A/B).
    pub subsets: usize,
    /// Overlap detection thresholds (§II-B).
    pub overlap: OverlapConfig,
    /// Multilevel coarsening (§II-C).
    pub coarsen: CoarsenConfig,
    /// Contiguity test (§II-D): field-less, kept while `benchmark/` reads it.
    pub layout: LayoutConfig,
    /// Number of graph partitions (must be a power of two).
    pub partitions: usize,
    /// Seed for the partitioner's randomised choices.
    pub partition_seed: u64,
    /// The distributed stage (§V); [`FocusConfig::threads`] overrides it.
    pub dist: DistributedConfig,
    /// Optional deterministic fault injection for the distributed stage.
    /// `None` (the default) runs a perfect cluster.
    pub fault: Option<FaultInjection>,
    /// Emit only the lexicographically canonical strand of each contig
    /// (exact reverse-complement duplicates are dropped). The read set is
    /// strand-augmented (§II-A), so assemblies naturally produce each contig
    /// on both strands; the paper reports raw counts, so this defaults off.
    pub dedup_rc: bool,
    /// Worker threads for the shared-memory parallel phases — alignment
    /// fan-out, task-parallel bisection, per-partition distributed scans.
    /// `0` (the default) uses the machine's available parallelism; `1`
    /// forces the exact serial path. Output is bit-identical at any
    /// setting.
    pub threads: usize,
    /// Heap budget in bytes for the big pipeline data structures (raw
    /// reads, the preprocessed store, seed indexes, overlap lists).
    /// `None` (the default) means unlimited. Every path accounts against
    /// it and fails fast with [`FocusError::BudgetExceeded`] when a
    /// reservation would not fit; with a budget, the file path
    /// ([`crate::ooc`]) keeps one seed index at a time instead of all of
    /// them, so more inputs fit. The budget never changes contigs or
    /// logical metrics — only whether a run is admitted and how many
    /// indexes it holds at once.
    pub memory_budget: Option<u64>,
    /// Structured tracing and metrics (fc-obs). Disabled by default — a
    /// disabled recorder is a single branch per record site. With
    /// `ObsOptions::logical()` the event clock is a logical counter and
    /// metric snapshots are byte-identical at any thread count.
    pub observability: ObsOptions,
}

impl Default for FocusConfig {
    fn default() -> FocusConfig {
        FocusConfig {
            trim: TrimConfig::default(),
            subsets: 4,
            overlap: OverlapConfig::default(),
            coarsen: CoarsenConfig::default(),
            layout: LayoutConfig,
            partitions: 16,
            partition_seed: 0xF0C05,
            dist: DistributedConfig::default(),
            fault: None,
            dedup_rc: false,
            threads: 0,
            memory_budget: None,
            observability: ObsOptions::default(),
        }
    }
}

impl FocusConfig {
    /// Validates cross-stage parameter sanity.
    pub fn validate(&self) -> Result<(), FocusError> {
        self.trim.validate()?;
        self.overlap.validate()?;
        if self.subsets == 0 {
            return Err(FocusError::Config("subsets must be > 0".to_string()));
        }
        if self.partitions == 0 || !self.partitions.is_power_of_two() {
            return Err(FocusError::Config(format!(
                "partitions must be a positive power of two, got {}",
                self.partitions
            )));
        }
        if let Some(fault) = &self.fault {
            fault.rates.validate()?;
        }
        Ok(())
    }
}

/// Errors surfaced by the assembler pipeline.
#[derive(Debug)]
pub enum FocusError {
    /// Invalid configuration.
    Config(String),
    /// A pipeline stage failed.
    Stage {
        /// Stage name (e.g. `"preprocess"`).
        stage: &'static str,
        /// Underlying message.
        message: String,
    },
    /// The input read set produced no usable data (e.g. everything trimmed
    /// away).
    EmptyInput,
    /// Preprocessing or parsing failed in fc-seq.
    Seq(SeqError),
    /// Overlap-detection configuration or alignment failed in fc-align.
    Align(AlignError),
    /// A graph structural invariant was violated in fc-graph.
    Graph(GraphError),
    /// Partitioning failed in fc-partition.
    Partition(PartitionError),
    /// The distributed stage failed with a typed error (unrecoverable
    /// cluster loss, invalid partition input, violated post-condition, …).
    Dist(DistError),
    /// A [`FocusConfig::memory_budget`] reservation did not fit: the run
    /// was refused before allocating, not killed mid-flight. Retry with a
    /// larger budget or the file path.
    BudgetExceeded(fc_obs::BudgetError),
}

impl fmt::Display for FocusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FocusError::Config(m) => write!(f, "invalid configuration: {m}"),
            FocusError::Stage { stage, message } => write!(f, "stage {stage} failed: {message}"),
            FocusError::EmptyInput => write!(f, "no usable reads after preprocessing"),
            FocusError::Seq(e) => write!(f, "read preprocessing failed: {e}"),
            FocusError::Align(e) => write!(f, "overlap detection failed: {e}"),
            FocusError::Graph(e) => write!(f, "graph invariant violated: {e}"),
            FocusError::Partition(e) => write!(f, "partitioning failed: {e}"),
            FocusError::Dist(e) => write!(f, "distributed stage failed: {e}"),
            // `BudgetError`'s own message already reads "memory budget
            // exceeded: ..." — don't double the prefix.
            FocusError::BudgetExceeded(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FocusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FocusError::Seq(e) => Some(e),
            FocusError::Align(e) => Some(e),
            FocusError::Graph(e) => Some(e),
            FocusError::Partition(e) => Some(e),
            FocusError::Dist(e) => Some(e),
            FocusError::BudgetExceeded(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SeqError> for FocusError {
    fn from(e: SeqError) -> FocusError {
        FocusError::Seq(e)
    }
}

impl From<AlignError> for FocusError {
    fn from(e: AlignError) -> FocusError {
        FocusError::Align(e)
    }
}

impl From<GraphError> for FocusError {
    fn from(e: GraphError) -> FocusError {
        FocusError::Graph(e)
    }
}

impl From<PartitionError> for FocusError {
    fn from(e: PartitionError) -> FocusError {
        FocusError::Partition(e)
    }
}

impl From<DistError> for FocusError {
    fn from(e: DistError) -> FocusError {
        FocusError::Dist(e)
    }
}

impl From<fc_obs::BudgetError> for FocusError {
    fn from(e: fc_obs::BudgetError) -> FocusError {
        FocusError::BudgetExceeded(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        FocusConfig::default().validate().unwrap();
    }

    #[test]
    fn rejects_bad_partitions() {
        let mut c = FocusConfig {
            partitions: 12,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c.partitions = 0;
        assert!(c.validate().is_err());
        c.partitions = 32;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rejects_zero_subsets() {
        let c = FocusConfig {
            subsets: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_invalid_fault_injection() {
        let mut c = FocusConfig {
            fault: Some(FaultInjection {
                seed: 1,
                rates: FaultRates {
                    crash: 1.5,
                    ..Default::default()
                },
            }),
            ..Default::default()
        };
        assert!(matches!(
            c.validate(),
            Err(FocusError::Dist(DistError::InvalidFaultRates(_)))
        ));
        c.fault = Some(FaultInjection {
            seed: 1,
            rates: FaultRates::default(),
        });
        assert!(c.validate().is_ok());
    }

    #[test]
    fn dist_error_converts_and_chains() {
        let e: FocusError = DistError::NoRanks.into();
        assert!(e.to_string().contains("distributed stage failed"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn error_display() {
        let e = FocusError::Stage {
            stage: "alignment",
            message: "boom".to_string(),
        };
        assert_eq!(e.to_string(), "stage alignment failed: boom");
        assert!(FocusError::EmptyInput
            .to_string()
            .contains("no usable reads"));
    }
}
