//! # fc-seq — sequence substrate for the Focus assembler
//!
//! This crate provides the DNA-sequence foundation used by every other crate
//! in the workspace:
//!
//! * [`Base`] and [`DnaString`] — a 2-bit packed DNA sequence type with
//!   reverse-complement, slicing and k-mer iteration, plus the zero-copy
//!   word-level [`packed::PackedView`] consumed by bit-parallel aligners,
//! * [`QualityScores`] — Phred quality values with FASTQ encoding,
//! * [`Read`] and [`ReadStore`] — sequencing reads as parsed, and the
//!   trimmed bases the assembler operates on, packed into one arena and
//!   read as [`PackedView`]s, including reverse-complement augmentation and
//!   subset splitting (paper §II-A),
//! * FASTA/FASTQ reading and writing ([`fasta`], [`fastq`]), and one
//!   file entry point over both ([`open`]),
//! * read trimming ([`trim`]) — fixed 5'/3' trimming and the paper's
//!   sliding-window 3' quality trimming.

#![forbid(unsafe_code)]

pub mod alphabet;
pub mod dna;
pub mod error;
pub mod fasta;
pub mod fastq;
pub mod format;
mod line;
pub mod packed;
pub mod paged;
pub mod quality;
pub mod read;
pub mod store;
pub mod trim;

pub use alphabet::Base;
pub use dna::DnaString;
pub use error::SeqError;
pub use format::{open, SeqReader};
pub use line::MAX_LINE_BYTES;
pub use packed::PackedView;
pub use paged::{PagedError, PagedReadStore, PagedStoreWriter};
pub use quality::QualityScores;
pub use read::{Read, ReadId, Record};
pub use store::{Orientation, ReadStore, ReadStoreBuilder};
pub use trim::TrimConfig;
