//! # focus-assembler — workspace facade
//!
//! Re-exports every subsystem of the Focus reproduction so examples and
//! downstream users can depend on a single crate. See the workspace README
//! and DESIGN.md for the architecture, and `focus_core::FocusAssembler` for
//! the end-to-end pipeline entry point.

#![forbid(unsafe_code)]

pub use fc_align as align;
pub use fc_ckpt as ckpt;
pub use fc_classify as classify;
pub use fc_dist as dist;
pub use fc_graph as graph;
pub use fc_obs as obs;
pub use fc_partition as partition;
pub use fc_seq as seq;
pub use fc_serve as serve;
pub use fc_sim as sim;
pub use focus_core as focus;
