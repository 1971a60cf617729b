//! # focus-core — the Focus assembler pipeline
//!
//! The end-to-end assembler of the paper (§II): read preprocessing →
//! parallel overlap alignment → overlap graph → multilevel coarsening →
//! hybrid graph set → partitioning → distributed trimming → distributed
//! traversal → contig construction.
//!
//! The crate stitches the substrates together behind one entry point,
//! [`FocusAssembler`], and exposes the intermediate artifacts: [`Prepared`],
//! what stage 6 reads, so experiments can sweep partition counts without
//! recomputing alignment and coarsening, and [`Stages`], every stage's
//! product, for the experiments that compare the graph sets.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod config;
pub mod ooc;
pub mod pipeline;
pub mod serve;
pub mod stats;

pub use checkpoint::{
    config_fingerprint, input_digest, AssemblyOutcome, CheckpointOptions, CkptPhase, InputDigest,
};
pub use config::{FaultInjection, FocusConfig, FocusError};
pub use fc_obs::{ObsOptions, Recorder};
pub use ooc::OocOptions;
pub use pipeline::{AssemblyResult, FocusAssembler, Prepared, Stages};
pub use serve::AssemblyJobRunner;
pub use stats::AssemblyStats;
