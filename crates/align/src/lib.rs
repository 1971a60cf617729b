//! # fc-align — read overlap detection for the Focus assembler
//!
//! Implements the paper's §II-B alignment stage:
//!
//! * [`index`] — the seed index: a bucketed table of packed k-mer positions
//!   over a read subset (standing in for the paper's suffix array, ref.
//!   \[14\]; same hits per lookup),
//! * [`nw`] — banded Needleman–Wunsch global alignment used to verify
//!   candidate overlaps,
//! * [`overlap`] — the overlap record vocabulary (suffix–prefix dovetails and
//!   containments, with alignment length and identity),
//! * [`pairwise`] — the subset-pair overlapper: k-mer seeding through the
//!   seed index, diagonal voting, banded verification, thresholding on
//!   minimum overlap length and identity,
//! * [`kernel`] — candidate verification: the bit-parallel prefilter
//!   around the banded-NW verdict ([`banded_nw_verdict`], its DP step and
//!   its oracle),
//! * [`myers`] — Myers' (1999) bit-parallel edit-distance kernel with the
//!   provable prefilter bounds.

#![forbid(unsafe_code)]

pub mod error;
pub mod index;
pub mod kernel;
pub mod myers;
pub mod nw;
pub mod overlap;
pub mod pairwise;

pub use error::AlignError;
pub use fc_exec::Pool;
pub use index::KmerIndex;
pub use kernel::{banded_nw_verdict, KernelScratch, VerifyReq};
pub use myers::{
    edit_distance_with, identity_upper_bound, max_columns_bound, optimal_gap_bound,
    ungapped_optimum_forced, MyersScratch,
};
pub use nw::{banded_global, banded_global_with, AlignmentSummary, NwScratch};
pub use overlap::{Overlap, OverlapKind};
pub use pairwise::{AlignScratch, OverlapConfig, Overlapper, PairStats, PairTally};
