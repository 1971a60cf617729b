//! # fc-dist — simulated distributed runtime and distributed graph
//! algorithms (paper §V)
//!
//! The paper runs Focus on an MPI cluster (Crane, 452 nodes). This
//! environment has one physical core, so the distributed substrate is a
//! **deterministic simulated cluster** (see DESIGN.md §2): rank code is the
//! real algorithm, executed rank by rank; every rank carries a virtual clock
//! charged per unit of algorithmic work, and messages are charged
//! latency + bandwidth. Parallel phase times are makespans over the virtual
//! clocks, which preserves exactly what the paper's Figs. 4–6 measure — how
//! work distributes over ranks and where speedup saturates — while being
//! reproducible.
//!
//! * [`cluster`] — virtual clocks, cost model, list scheduling, message
//!   accounting, fault consumption (crashes, drops, delays, stragglers),
//! * [`fault`] — deterministic fault-injection plans and the retry/backoff
//!   policy (seeded, reproducible),
//! * [`error`] — typed errors of the distributed stage,
//! * [`recovery`] — phase-level recovery: reassign dead ranks' partitions
//!   and re-invoke the pure worker scans on survivors,
//! * [`transitive`] — distributed transitive edge reduction (§V-A, Myers),
//! * [`simplify`] — containment removal and false-positive edge removal
//!   (§V-B),
//! * [`error_removal`] — dead-end trimming and bubble popping (§V-C,
//!   Velvet-style),
//! * [`traverse`] — per-partition maximal-path extraction and master-side
//!   sub-path joining (§V-D),
//! * [`driver`] — the full distributed pipeline over a partitioned hybrid
//!   graph, with per-phase virtual timings and a fault report. A run holds
//!   no durable state: it is a pure function of the graph, the partition
//!   and the [`FaultPlan`], so a resumed assembly reruns it from the start
//!   and replays the same faults,
//! * [`variants`] — distributed variant detection, the extension the
//!   paper's discussion (§VI-D) proposes as future work.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod driver;
pub mod error;
pub mod error_removal;
pub mod fault;
pub mod recovery;
pub mod simplify;
pub mod transitive;
pub mod traverse;
pub mod variants;

pub use cluster::{CostModel, PhaseTiming, SimCluster};
pub use driver::{DistributedConfig, DistributedHybrid, DistributedReport};
pub use error::DistError;
pub use recovery::{execute_phase, PhaseExecution};
pub use fault::{FaultKind, FaultPlan, FaultRates, FaultReport, PhaseId, RetryPolicy};
pub use traverse::AssemblyPath;
pub use variants::{detect_variants, Variant, VariantConfig};
