//! # fc-sim — synthetic NGS data for the Focus reproduction
//!
//! The paper evaluates on three Illumina gut-microbiome runs from the NCBI
//! SRA. Those data sets (and the reference database used to label them) are
//! not available here, so this crate builds the closest synthetic equivalent
//! (see DESIGN.md §2):
//!
//! * [`genome`] — random genomes, segment-wise mutation (conserved vs
//!   variable regions), tandem/dispersed repeat insertion,
//! * [`phylo`] — a small gut-like taxonomy: phyla with a common ancestral
//!   genome per phylum, genera derived by divergence, so genera within a
//!   phylum remain more similar to each other than across phyla (what Fig. 7
//!   of the paper observes in partition space),
//! * [`community`] — abundance profiles over the genera,
//! * [`reads`] — a shotgun read simulator with positional error/quality
//!   model, producing 100 bp reads with ground-truth origins,
//! * [`dataset`] — assembled data sets, including
//!   [`dataset::paper_datasets`], the three deterministic analogues of the
//!   paper's D1–D3.

#![forbid(unsafe_code)]

pub mod community;
pub mod dataset;
pub mod error;
pub mod genome;
pub mod phylo;
pub mod reads;

pub use community::CommunityProfile;
pub use dataset::{
    generate as generate_dataset, generate_to, paper_datasets, single_genome_config,
    single_genome_dataset, Dataset, DatasetConfig, StreamSummary, SINGLE_GENOME_NAME,
};
pub use error::SimError;
pub use genome::{GenomeConfig, MutationModel};
pub use phylo::{Genus, Taxonomy, TaxonomyConfig};
pub use reads::{ReadOrigin, ReadSimConfig};
