//! # fc-partition — multilevel graph partitioning (paper §IV)
//!
//! Partitions a [`fc_graph::GraphSet`] — either the multilevel set (the
//! "naïve" baseline) or the hybrid set (biological knowledge injected) —
//! into `k = 2^i` parts by recursive bisection:
//!
//! * [`local`] — induced subgraphs with dense local ids (CSR rows) used by
//!   growing and KL,
//! * [`grow`] — greedy graph growing for the initial bisection (§IV-A):
//!   gain-priority growth, alternating sides, 3 % edge-weight balance bound,
//! * [`kl`] — Kernighan–Lin bisection refinement (§IV-B): D values, dual
//!   D-ordered queues with diagonal scanning, fifty-swap early stop, undo to
//!   the best partial sum,
//! * [`recursive`] — multilevel recursive bisection with projection and
//!   per-level refinement (§IV-C), recording the task tree whose natural
//!   parallelism fc-dist schedules (Fig. 4),
//! * [`kway`] — global k-way Kernighan–Lin boundary refinement (§IV-D),
//! * [`metrics`] — edge cut, balance and validity checks (Table II).
//!
//! ## Cost of a swap, cost on the clock
//!
//! The three inner loops pay for what a swap or move changed: KL keeps its
//! two D-ordered queues for a whole pass and re-keys only the swapped pair's
//! neighbors, greedy growing reseeds from a Fenwick tree of unassigned
//! nodes, k-way refinement scans only unlocked boundary nodes, and each
//! recursion step buckets the levels by part once for all its tasks.
//!
//! The hybrid set is mostly isolated nodes (≈ 90 % on focus-bench's inputs),
//! and a node without a local edge never takes part in a cut, so three
//! per-task costs follow edges rather than node count (the clock below is
//! untouched by them):
//!
//! * KL keeps only nodes with a local edge in its ordered sets; each side's
//!   isolated nodes (D = 0 for the whole pass, never re-keyed) are an
//!   id-ascending run behind a cursor, merged into the scan at key
//!   `(Reverse(0), id)`. The scan can only take the run's head, so taking
//!   it advances the cursor.
//! * Projection reads the ancestor's side at its rank in the level above's
//!   bucket: each step's buckets come with every node's rank in its
//!   bucket, shared by all of the step's tasks, so no task searches.
//! * Extraction finds a neighbor's local id through the same snapshot and
//!   ranks, with no level-sized map per task, and stores the rows as CSR in
//!   the order the level's own rows have.
//!
//! [`TaskRecord::work`] is a different thing: the virtual clock of the
//! *paper's* `O(n² log n)` scheme, which fc-dist schedules to reproduce
//! Fig. 4/5. It is charged by count — unlocked nodes per swap, pairs the
//! diagonal scan examines, edges relaxed, the degree sum of all unlocked
//! nodes per k-way move — regardless of the structure underneath, so work
//! units, assignments and everything downstream of them do not depend on
//! how the loops are implemented. Each loop's previous body survives as a
//! `#[cfg(test)] mod reference` that differential tests compare against.
//!
//! Copy levels are refined once and charged as if refined again: where the
//! hybrid set repeats a level, a copy takes the level above's bisection and
//! is charged the work of KL's settled final pass, which is exactly what
//! refining it again would have cost, and a run of equal copies shares one
//! k-way pass whose work every copy's task record carries
//! ([`recursive`]'s module docs). The clock cannot tell the difference.

#![forbid(unsafe_code)]

pub mod error;
pub mod grow;
pub mod kl;
pub mod kway;
pub mod local;
pub mod metrics;
pub mod recursive;
#[cfg(test)]
mod testgen;

pub use error::PartitionError;
pub use grow::greedy_grow;
pub use kl::kl_refine;
pub use kway::kway_refine;
pub use local::LocalGraph;
pub use metrics::{edge_cut, partition_balance, validate_partition};
pub use recursive::{
    partition_graph_set, partition_graph_set_obs, PartitionConfig, PartitionResult, TaskRecord,
};
