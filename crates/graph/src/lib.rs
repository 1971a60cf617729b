//! # fc-graph — assembly graphs for the Focus reproduction
//!
//! The paper's graph-theoretic core (§II-C/D, §III):
//!
//! * `csr` — the one adjacency layout under both graph types: every row in
//!   one array, in first-insertion order,
//! * [`level`] — the undirected weighted graph type used at every level of
//!   the multilevel and hybrid graph sets (node weight = reads represented,
//!   edge weight = alignment length),
//! * [`digraph`] — the directed overlap graph used by assembly traversal,
//! * [`build`] — constructing the level-0 overlap graph `G0` from verified
//!   overlaps,
//! * [`coarsen`] — heavy-edge matching and node merging producing the
//!   multilevel graph set `G = {G0 … Gn}` (Karypis–Kumar),
//! * [`layout`] — read-cluster layout and the contiguity test behind "best
//!   representative" selection (does this cluster assemble into one contig?),
//! * [`hybrid`] — best-representative selection across levels and the hybrid
//!   graph set `G' = {G'0 … G'n}`, the paper's vehicle for injecting
//!   biological knowledge into partitioning.

#![forbid(unsafe_code)]

pub mod build;
pub mod coarsen;
mod csr;
pub mod digraph;
pub mod error;
pub mod export;
pub mod hybrid;
pub mod layout;
pub mod level;
#[cfg(test)]
mod reference;

pub use build::OverlapGraph;
pub use coarsen::{CoarsenConfig, MultilevelSet};
pub use digraph::{DiEdge, DiGraph};
pub use error::GraphError;
pub use export::{digraph_to_dot, digraph_to_gfa};
pub use hybrid::{HybridSet, Representative};
pub use layout::{ClusterLayout, LayoutConfig};
pub use level::{GraphSet, LevelGraph, NodeId};
