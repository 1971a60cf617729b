//! Offline stand-in for `rand` 0.8, patched in by `benchmark/Cargo.toml`.
//!
//! Covers exactly what fc-graph and fc-partition call: `SeedableRng::
//! seed_from_u64`, `Rng::gen_range` over a half-open `usize` range, and
//! `SliceRandom::shuffle`. The stream is *not* the published crate's; the
//! benchmark's datasets do not depend on it (see `gen.rs`), only coarsening
//! visit order and greedy-growing tie seeds do.

use std::ops::Range;

/// Source of random 64-bit words.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Convenience draws on top of [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform draw from `range` (must be non-empty), by widening multiply.
    fn gen_range(&mut self, range: Range<usize>) -> usize {
        assert!(range.start < range.end, "gen_range needs a non-empty range");
        let span = (range.end - range.start) as u128;
        range.start + ((u128::from(self.next_u64()) * span) >> 64) as usize
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod seq {
    use super::Rng;

    /// In-place Fisher-Yates shuffle.
    pub trait SliceRandom {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..i + 1));
            }
        }
    }
}
