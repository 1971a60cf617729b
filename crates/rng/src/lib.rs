//! # fc-rng — the workspace's one source of randomness
//!
//! [`Rng`] is SplitMix64 with the seed as its initial state. Coarsening's
//! visit order, greedy growing's reseeds, fc-sim's communities and the fault
//! plans of fc-dist and fc-ckpt are functions of this stream: changing a
//! method here changes contigs, partitions and EXPERIMENTS.md.
//!
//! [`cases`] is the property-test loop. Its seeds are fixed, so a failure
//! reproduces by re-running the test; there is no shrinking.

#![forbid(unsafe_code)]

use std::any::Any;
use std::io::Write;
use std::ops::{Bound, RangeBounds};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// SplitMix64 (Steele, Lea & Flood 2014); the state starts at the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

/// Integer types [`Rng::range`] draws.
pub trait Int: Copy {
    const MIN: Self;
    const MAX: Self;
    fn widen(self) -> i128;
    fn narrow(v: i128) -> Self;
}

macro_rules! int {
    ($($t:ty)*) => {$(impl Int for $t {
        const MIN: $t = <$t>::MIN;
        const MAX: $t = <$t>::MAX;
        fn widen(self) -> i128 { self as i128 }
        fn narrow(v: i128) -> $t { v as $t }
    })*};
}
int!(u8 u16 u32 u64 usize i8 i16 i32 i64 isize);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.range(0..n)
    }

    /// Uniform in a non-empty integer range, `a..b` or `a..=b`: one draw
    /// mapped onto the span (at most 2^64) by widening multiply.
    pub fn range<T: Int>(&mut self, range: impl RangeBounds<T>) -> T {
        let start = match range.start_bound() {
            Bound::Included(s) => s.widen(),
            Bound::Excluded(s) => s.widen() + 1,
            Bound::Unbounded => T::MIN.widen(),
        };
        let end = match range.end_bound() {
            Bound::Included(e) => e.widen() + 1,
            Bound::Excluded(e) => e.widen(),
            Bound::Unbounded => T::MAX.widen() + 1,
        };
        assert!(start < end, "range is empty");
        let offset = (u128::from(self.next_u64()) * (end - start) as u128) >> 64;
        T::narrow(start + offset as i128)
    }

    /// Uniform in `[0, 1)` with 53 bits.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`.
    pub fn bool(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// A vector of `item` draws whose length is uniform in `len`.
    pub fn vec<T>(
        &mut self,
        len: impl RangeBounds<usize>,
        mut item: impl FnMut(&mut Rng) -> T,
    ) -> Vec<T> {
        (0..self.range(len)).map(|_| item(self)).collect()
    }

    /// Fisher–Yates from the top.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Runs `body` on `n` generators, one per case index, and re-raises the
/// first panic after naming its case on stderr. Miri runs at most 8.
pub fn cases(n: u64, body: impl FnMut(&mut Rng)) {
    let n = if cfg!(miri) { n.min(8) } else { n };
    if let Some((index, seed, payload)) = first_failure(n, body) {
        let _ = writeln!(
            std::io::stderr(),
            "fc_rng::cases: case {index} of {n} failed; its generator is Rng::new({seed:#018x})"
        );
        resume_unwind(payload);
    }
}

/// A failing case: its index, its seed and the panic's payload.
type Failure = (u64, u64, Box<dyn Any + Send>);

fn first_failure(n: u64, mut body: impl FnMut(&mut Rng)) -> Option<Failure> {
    (0..n).find_map(|index| {
        let seed = Rng::new(index).next_u64();
        catch_unwind(AssertUnwindSafe(|| body(&mut Rng::new(seed))))
            .err()
            .map(|payload| (index, seed, payload))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_known_answers() {
        let mut rng = Rng::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
        let mut rng = Rng::new(1_234_567);
        assert_eq!(rng.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(rng.next_u64(), 3_203_168_211_198_807_973);
        assert_eq!(Rng::new(0).f64(), 0.883_310_808_213_642_6);
    }

    #[test]
    fn draws_stay_in_range() {
        let mut rng = Rng::new(42);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..2_000 {
            for n in [1, 2, 3, u64::MAX] {
                assert!(rng.below(n) < n);
            }
            assert!((5..8).contains(&rng.range(5usize..8)));
            assert_eq!(rng.range(9u8..=9), 9);
            assert!(rng.range(i64::MIN..0) < 0);
            assert!((0.0..1.0).contains(&rng.f64()));
            seen.insert(rng.range(-2i32..=2));
        }
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), [-2, -1, 0, 1, 2]);
        assert_eq!(Rng::new(3).range(0..=u64::MAX), Rng::new(3).next_u64());
    }

    #[test]
    fn shuffle_is_descending_fisher_yates() {
        let mut shuffled: Vec<u32> = (0..100).collect();
        Rng::new(9).shuffle(&mut shuffled);
        let mut expected: Vec<u32> = (0..100).collect();
        let mut rng = Rng::new(9);
        for i in (1..expected.len()).rev() {
            expected.swap(i, rng.range(0..i + 1));
        }
        assert_eq!(shuffled, expected, "and swaps keep it a permutation");
    }

    #[test]
    fn cases_are_n_distinct_seeds_in_index_order() {
        let mut firsts = Vec::new();
        assert!(first_failure(20, |rng| firsts.push(rng.next_u64())).is_none());
        let seeds: Vec<u64> = (0..20).map(|i| Rng::new(i).next_u64()).collect();
        let expected: Vec<u64> = seeds.iter().map(|&s| Rng::new(s).next_u64()).collect();
        assert_eq!(firsts, expected);
        assert!((1..20).all(|i| !seeds[..i].contains(&seeds[i])));
    }

    #[test]
    fn first_failure_names_the_case_and_keeps_the_payload() {
        let mut ran = 0u64;
        let (index, seed, payload) = first_failure(20, |rng| {
            ran += 1;
            let first = rng.next_u64();
            assert!(ran != 8, "case with first draw {first}");
        })
        .expect("case 7 fails");
        assert_eq!((index, ran), (7, 8), "the loop stops at the first failure");
        assert_eq!(seed, Rng::new(7).next_u64());
        let message = payload.downcast_ref::<String>().expect("assert! payload");
        let first = Rng::new(seed).next_u64();
        assert_eq!(message, &format!("case with first draw {first}"));
    }
}
