//! Zero-copy word-level access to 2-bit packed DNA.
//!
//! [`PackedView`] is how every stage past preprocessing reads bases: the
//! read store hands out one per stored read, borrowed from its arena
//! ([`ReadStore::get`](crate::ReadStore::get)), and
//! [`DnaString::packed`](crate::DnaString::packed) gives one for a genome
//! or a contig. The alignment kernels (fc-align) consume them
//! word-at-a-time: the seed index copies reads into its text 32 bases per
//! window, the Myers bit-parallel kernel builds its `Peq` match tables
//! from 32-base windows, the ungapped-optimum shortcut counts the
//! mismatches of a candidate's two ranges 32 bases per machine word, and
//! banded NW unpacks its two ranges into byte codes 32 bases per word read
//! ([`PackedView::fill_codes`]). A view never copies sequence data, so
//! views are freely shared across fc-exec worker threads.
//!
//! The crate's two word streams, `PackedView::range_words` and
//! `PackedView::reverse_complement_words`, are how packed bases are
//! written: the store's arena, `DnaString::slice` and
//! `DnaString::reverse_complement` all collect them.
//!
//! Layout contract (shared with [`crate::dna`] and [`crate::store`]): two
//! bits per base, code `base.code()`, 32 bases per `u64`, the first base in
//! the lowest bits, and all padding bits past the logical length are zero
//! (enforced by the `DnaString` constructors, its checkpoint decoder and
//! the store's writers).

/// Number of bases packed into one `u64` word.
pub const BASES_PER_WORD: usize = 32;

/// A read-only, zero-copy view of a 2-bit packed DNA sequence.
///
/// Obtained from [`ReadStore::get`](crate::ReadStore::get) or
/// [`DnaString::packed`](crate::DnaString::packed). The view borrows the
/// underlying words; it is `Copy` and cheap to pass by value. Two views
/// are equal when they hold the same bases, since padding bits are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedView<'a> {
    words: &'a [u64],
    len: usize,
}

impl<'a> PackedView<'a> {
    /// Creates a view over `words` holding `len` bases. Padding bits past
    /// `len` must be zero (the `DnaString` representation and the store's
    /// arena guarantee this).
    pub(crate) fn new(words: &'a [u64], len: usize) -> PackedView<'a> {
        debug_assert!(words.len() == len.div_ceil(BASES_PER_WORD));
        PackedView { words, len }
    }

    /// Number of bases in the viewed sequence.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the viewed sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The raw packed words (first base in the lowest bits of `words[0]`).
    #[inline]
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// 2-bit code of the base at `i` (same value as `get(i).code()`).
    ///
    /// # Panics
    /// Panics in debug builds if `i >= self.len()`.
    #[inline]
    pub fn code(&self, i: usize) -> u8 {
        debug_assert!(
            i < self.len,
            "index {i} out of bounds for length {}",
            self.len
        );
        ((self.words[i / BASES_PER_WORD] >> ((i % BASES_PER_WORD) * 2)) & 0b11) as u8
    }

    /// A 64-bit window holding the 32 bases starting at `start` (first base
    /// in the lowest two bits). Bases past the end of the sequence read as
    /// zero — callers that care about the tail mask it themselves.
    ///
    /// # Panics
    /// Panics in debug builds if `start > self.len()`.
    #[inline]
    pub fn window(&self, start: usize) -> u64 {
        debug_assert!(
            start <= self.len,
            "window start {start} past length {}",
            self.len
        );
        let bit = start * 2;
        let (w, sh) = (bit / 64, bit % 64);
        let lo = self.words.get(w).copied().unwrap_or(0) >> sh;
        if sh == 0 {
            lo
        } else {
            lo | (self.words.get(w + 1).copied().unwrap_or(0) << (64 - sh))
        }
    }

    /// The packed words of `self[start..end]`, re-aligned so that base
    /// `start` is the lowest two bits of the first word: `(end - start)` /
    /// 32 words rounded up, padding bits zero.
    ///
    /// # Panics
    /// Panics in debug builds if the range is out of bounds.
    pub(crate) fn range_words(&self, start: usize, end: usize) -> impl Iterator<Item = u64> + 'a {
        debug_assert!(start <= end && end <= self.len, "range out of bounds");
        let view = *self;
        (start..end)
            .step_by(BASES_PER_WORD)
            .map(move |at| view.window(at) & low_bases(end - at))
    }

    /// The packed words of the view's reverse complement, laid out as
    /// [`range_words`](PackedView::range_words) lays out a forward range.
    /// Each output word is one window read backwards from the end: its
    /// 2-bit slots reversed, then complemented (a base's complement is its
    /// code `^ 3`).
    pub(crate) fn reverse_complement_words(&self) -> impl Iterator<Item = u64> + 'a {
        let view = *self;
        (0..view.len).step_by(BASES_PER_WORD).map(move |off| {
            let count = (view.len - off).min(BASES_PER_WORD);
            // The window's first `count` slots hold the bases this word
            // reverses; reversing moves the slots past them to the bottom,
            // where the shift drops them.
            let reversed = reverse_slots(view.window(view.len - off - count));
            (reversed >> (2 * (BASES_PER_WORD - count))) ^ low_bases(count)
        })
    }

    /// `self[start..start + count] ^ other[ostart..ostart + count]`, 32
    /// bases per word: a base differs iff either bit of its slot is set.
    /// Slots past `count` in the last word are zero.
    ///
    /// # Panics
    /// Panics in debug builds if either range is out of bounds.
    fn xor_words<'s>(
        &'s self,
        start: usize,
        other: &'s PackedView<'_>,
        ostart: usize,
        count: usize,
    ) -> impl Iterator<Item = u64> + 's {
        debug_assert!(start + count <= self.len, "left range out of bounds");
        debug_assert!(ostart + count <= other.len, "right range out of bounds");
        (0..count).step_by(BASES_PER_WORD).map(move |off| {
            let x = self.window(start + off) ^ other.window(ostart + off);
            match count - off {
                tail if tail < BASES_PER_WORD => x & ((1u64 << (2 * tail)) - 1),
                _ => x,
            }
        })
    }

    /// Number of positions `i < count` at which `self[start + i]` differs
    /// from `other[ostart + i]` (the Hamming distance of the two ranges),
    /// counted 32 bases per step: `xor` the windows, fold each base's two
    /// bit planes onto its low bit, `popcount`.
    ///
    /// # Panics
    /// Panics in debug builds if either range is out of bounds.
    pub fn mismatches(
        &self,
        start: usize,
        other: &PackedView<'_>,
        ostart: usize,
        count: usize,
    ) -> usize {
        /// The low bit of every 2-bit base slot.
        const LOW_PLANE: u64 = 0x5555_5555_5555_5555;
        self.xor_words(start, other, ostart, count)
            .map(|x| ((x | (x >> 1)) & LOW_PLANE).count_ones() as usize)
            .sum()
    }

    /// Appends the 2-bit codes of `self[start..end]` to `out` (which is
    /// cleared first), 32 bases per packed-word read.
    ///
    /// # Panics
    /// Panics in debug builds if the range is out of bounds.
    pub fn fill_codes(&self, start: usize, end: usize, out: &mut Vec<u8>) {
        debug_assert!(start <= end && end <= self.len, "range out of bounds");
        out.clear();
        out.reserve(end - start);
        let mut pos = start;
        while pos < end {
            let chunk = (end - pos).min(BASES_PER_WORD);
            let mut window = self.window(pos);
            for _ in 0..chunk {
                out.push((window & 0b11) as u8);
                window >>= 2;
            }
            pos += chunk;
        }
    }
}

/// The bits of a word's first `count` bases (all of them from 32 up).
#[inline]
fn low_bases(count: usize) -> u64 {
    match count {
        0..BASES_PER_WORD => (1u64 << (2 * count)) - 1,
        _ => u64::MAX,
    }
}

/// A word's 32 two-bit slots in reverse order: the bit reversal swaps each
/// slot's two bits, and the second step swaps them back.
#[inline]
fn reverse_slots(word: u64) -> u64 {
    const LOW_PLANE: u64 = 0x5555_5555_5555_5555;
    let r = word.reverse_bits();
    ((r >> 1) & LOW_PLANE) | ((r & LOW_PLANE) << 1)
}

#[cfg(test)]
mod tests {
    use crate::DnaString;
    use fc_rng::Rng;

    fn seq(pattern: &str, repeat: usize) -> DnaString {
        pattern.repeat(repeat).parse().unwrap()
    }

    fn random_seq(len: usize, seed: u64) -> DnaString {
        let mut rng = Rng::new(seed);
        (0..len)
            .map(|_| crate::Base::from_code(rng.range(0..4)))
            .collect()
    }

    #[test]
    fn codes_match_get_across_word_boundaries() {
        for len in [0usize, 1, 31, 32, 33, 63, 64, 65, 100] {
            let s = random_seq(len, len as u64 + 1);
            let v = s.packed();
            assert_eq!(v.len(), len);
            assert_eq!(v.is_empty(), len == 0);
            for i in 0..len {
                assert_eq!(v.code(i), s.get(i).code(), "len {len} index {i}");
            }
        }
    }

    #[test]
    fn window_reads_32_bases_at_any_offset() {
        let s = random_seq(100, 7);
        let v = s.packed();
        for start in 0..=s.len() {
            let window = v.window(start);
            for i in 0..32.min(s.len() - start) {
                assert_eq!(
                    ((window >> (2 * i)) & 0b11) as u8,
                    v.code(start + i),
                    "start {start} offset {i}"
                );
            }
            // Bases past the end read as zero.
            for i in s.len().saturating_sub(start)..32 {
                assert_eq!((window >> (2 * i)) & 0b11, 0, "start {start} offset {i}");
            }
        }
    }

    /// Random ranges of a periodic sequence against a random one, and each
    /// range against itself: no mismatch exactly when every base agrees.
    #[test]
    fn no_mismatches_exactly_when_ranges_are_equal() {
        let a = seq("ACGTTGCA", 16); // 128 bases
        let b = random_seq(128, 3);
        let mut rng = Rng::new(99);
        let (va, vb) = (a.packed(), b.packed());
        for _ in 0..500 {
            let count = rng.range(0..90);
            let sa = rng.range(0..=a.len() - count);
            let sb = rng.range(0..=b.len() - count);
            let naive = (0..count).all(|i| a.get(sa + i) == b.get(sb + i));
            assert_eq!(
                va.mismatches(sa, &vb, sb, count) == 0,
                naive,
                "a[{sa}..] vs b[{sb}..] x{count}"
            );
            assert_eq!(va.mismatches(sa, &va, sa, count), 0);
        }
        // One differing base at the end of a word-and-a-half tail.
        let a = seq("ACGT", 20); // 80 bases
        let mut b = a.clone();
        b.set(79, b.get(79).complement());
        assert_eq!(a.packed().mismatches(0, &b.packed(), 0, 79), 0);
        assert_ne!(a.packed().mismatches(0, &b.packed(), 0, 80), 0);
    }

    /// Every offset pair across the word boundaries, every tail length:
    /// the word-parallel count equals the base-by-base one.
    #[test]
    fn mismatches_agree_with_base_comparison_at_every_offset() {
        let a = random_seq(140, 5);
        // A copy with scattered substitutions, so counts are neither 0 nor
        // ~3/4 of the range.
        let mut b = a.clone();
        let mut rng = Rng::new(17);
        for _ in 0..25 {
            let p = rng.range(0..b.len());
            b.set(p, crate::Base::from_code(rng.range(0..4)));
        }
        let c = random_seq(140, 6);
        for other in [&b, &c] {
            let (va, vo) = (a.packed(), other.packed());
            for sa in [0usize, 1, 15, 31, 32, 33, 63, 64, 65] {
                for so in [0usize, 1, 7, 31, 32, 33, 64] {
                    for count in 0..=a.len() - sa.max(so) {
                        let naive = (0..count)
                            .filter(|&i| a.get(sa + i) != other.get(so + i))
                            .count();
                        assert_eq!(
                            va.mismatches(sa, &vo, so, count),
                            naive,
                            "a[{sa}..] vs o[{so}..] x{count}"
                        );
                    }
                }
            }
        }
    }

    /// Both bit planes count once: a base differing in its high bit, its
    /// low bit or both is one mismatch, and bases past `count` are ignored.
    #[test]
    fn mismatches_count_each_base_once_and_mask_the_tail() {
        let a: DnaString = "AAAA".repeat(10).parse().unwrap(); // code 0
        for (other, per_base) in [("CCCC", 1), ("GGGG", 1), ("TTTT", 1), ("AAAA", 0)] {
            let b: DnaString = other.repeat(10).parse().unwrap();
            for count in [0usize, 1, 31, 32, 33, 40] {
                assert_eq!(
                    a.packed().mismatches(0, &b.packed(), 0, count),
                    per_base * count
                );
            }
        }
        let mut b = a.clone();
        b.set(39, crate::Base::from_code(3));
        assert_eq!(a.packed().mismatches(0, &b.packed(), 0, 39), 0);
        assert_eq!(a.packed().mismatches(0, &b.packed(), 0, 40), 1);
    }

    #[test]
    fn fill_codes_round_trips() {
        let s = random_seq(90, 11);
        let v = s.packed();
        let mut out = vec![9u8; 4]; // stale contents must be cleared
        v.fill_codes(5, 77, &mut out);
        assert_eq!(out.len(), 72);
        for (i, &c) in out.iter().enumerate() {
            assert_eq!(c, s.get(5 + i).code());
        }
        v.fill_codes(0, 0, &mut out);
        assert!(out.is_empty());
    }

    /// Both word streams, at every range around the word boundaries,
    /// against the sequence rebuilt base by base.
    #[test]
    fn range_and_reverse_complement_words_match_base_by_base() {
        let s = random_seq(130, 13);
        let v = s.packed();
        let words = |bases: Vec<crate::Base>| -> Vec<u64> {
            let expect: DnaString = bases.into_iter().collect();
            expect.packed().words().to_vec()
        };
        for start in [0usize, 1, 31, 32, 33, 63, 64, 65, 97] {
            for end in start..=s.len() {
                let forward = (start..end).map(|i| s.get(i));
                assert_eq!(
                    v.range_words(start, end).collect::<Vec<_>>(),
                    words(forward.collect()),
                    "{start}..{end}"
                );
                let reverse = (start..end).rev().map(|i| s.get(i).complement());
                let range = s.slice(start, end);
                assert_eq!(
                    range
                        .packed()
                        .reverse_complement_words()
                        .collect::<Vec<_>>(),
                    words(reverse.collect()),
                    "rc {start}..{end}"
                );
            }
        }
    }

    #[test]
    fn empty_ranges_have_no_mismatches() {
        let a = random_seq(10, 1);
        let b = random_seq(10, 2);
        assert_eq!(a.packed().mismatches(3, &b.packed(), 7, 0), 0);
        assert_eq!(a.packed().mismatches(10, &b.packed(), 10, 0), 0);
    }
}
