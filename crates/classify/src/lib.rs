//! # fc-classify — read classification and community-structure analysis
//! (paper §VI-E, Fig. 7)
//!
//! The paper aligns reads against the HMP gut reference database with BWA
//! and assigns each read the genus of its best hit, then studies how genera
//! distribute over graph partitions. Here the reference database is the
//! simulated taxonomy's genus genomes and the aligner is a k-mer best-hit
//! classifier ([`classifier`]) — equivalent for the purpose of producing
//! best-hit genus labels (see DESIGN.md §2).
//!
//! [`distribution`] builds the genus × partition read-fraction matrix of
//! Fig. 7 and the within/cross-phylum co-clustering summary; [`heatmap`]
//! renders the matrix as text/CSV. [`eval`] scores an assembly against the
//! same references. Both answer from fc-align's seed index over both
//! strands of every reference, whose hits carry genome, position and strand.

#![forbid(unsafe_code)]

pub mod accuracy;
pub mod classifier;
pub mod distribution;
pub mod error;
pub mod eval;
pub mod heatmap;
mod reference;

pub use accuracy::ClassifierAccuracy;
pub use classifier::KmerClassifier;
pub use distribution::{GenusDistribution, PhylumCoclustering};
pub use error::ClassifyError;
pub use eval::{evaluate as evaluate_against_references, ReferenceEvaluation};
pub use heatmap::{render_csv, render_text};
