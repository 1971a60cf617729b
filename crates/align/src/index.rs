//! The seed index: a bucketed table of packed k-mer positions over a read
//! subset.
//!
//! The paper indexes each reference subset with a suffix array (§II-B).
//! Seeding asks that index one question — where does this k-mer occur? — for
//! the one configured `k`, and diagonal voting is indifferent to the order
//! the occurrences come back in, so suffix order buys nothing. [`KmerIndex`]
//! keeps the subset's reads concatenated at two bits per base and one `u32`
//! per in-read k-mer start, grouped by a directory over the k-mer's first
//! `p` bases with each group sorted by `(k-mer, position)`. A lookup is one
//! directory read plus a short scan comparing 64-bit windows of the packed
//! text; it returns the same hit multiset the suffix-array interval did
//! (DESIGN.md §2).

use fc_seq::packed::BASES_PER_WORD;
use fc_seq::{DnaString, ReadId};

/// Buckets up to this long are scanned outright; longer ones (repeats that
/// share their first `p` bases) are narrowed by binary search first.
const LINEAR_SCAN_MAX: usize = 8;

/// K-mer positions of one read subset, for one `k`.
#[derive(Debug, Clone)]
pub struct KmerIndex {
    /// The reads' bases back to back, 32 per word, then one zero word so a
    /// window starting at the last base needs no bounds case.
    words: Vec<u64>,
    /// Every in-read k-mer start (a base offset into `words`), grouped by
    /// bucket, each bucket sorted by `(k-mer, position)`.
    positions: Vec<u32>,
    /// Bucket `b` — the k-mers whose first `p` bases pack to `b` — is
    /// `positions[dir[b]..dir[b + 1]]`; `dir.len() == 4^p + 1`.
    dir: Vec<u32>,
    /// Start of each read in the concatenation, then the total length.
    read_starts: Vec<u32>,
    /// The reads, in concatenation order.
    ids: Vec<ReadId>,
    /// The low `2k` bits.
    kmer_mask: u64,
}

/// The 32 bases starting at `pos`, first base in the lowest bits.
#[inline]
fn window(words: &[u64], pos: usize) -> u64 {
    let (w, sh) = (pos / BASES_PER_WORD, pos % BASES_PER_WORD * 2);
    if sh == 0 {
        words[w]
    } else {
        words[w] >> sh | words[w + 1] << (64 - sh)
    }
}

/// Words holding `bases` packed bases plus the zero word [`window`] may
/// read past them.
fn words_for(bases: usize) -> usize {
    bases.div_ceil(BASES_PER_WORD) + 1
}

/// Directory width in bases: the largest `p <= k` with `4^p <= kmers / 2`,
/// so the directory never outweighs half the positions it points into and
/// shrinks with the subset.
fn dir_bases(kmers: usize, k: usize) -> usize {
    let mut p = 0;
    while p < k && (4u64 << (2 * p)) <= kmers as u64 / 2 {
        p += 1;
    }
    p
}

/// Every position where a k-mer lies inside one read.
fn kmer_starts(read_starts: &[u32], k: usize) -> impl Iterator<Item = u32> + '_ {
    read_starts
        .windows(2)
        .flat_map(move |w| w[0]..w[1].saturating_sub(k as u32 - 1))
}

impl KmerIndex {
    /// Indexes the k-mers of `reads` (id + sequence pairs).
    ///
    /// Two counting passes size the position array and its buckets, a third
    /// pass scatters, and each bucket is sorted in place: nothing is
    /// allocated beyond the arrays the index keeps.
    ///
    /// # Panics
    /// Panics if `k` is outside `1..=32` or the subset has `2^32` bases or
    /// more.
    pub fn build(reads: &[(ReadId, &DnaString)], k: usize) -> KmerIndex {
        assert!((1..=32).contains(&k), "k must be in 1..=32");
        let bases: usize = reads.iter().map(|(_, seq)| seq.len()).sum();
        assert!(
            bases <= u32::MAX as usize,
            "a subset's bases must fit u32 positions"
        );
        let mut words = vec![0u64; words_for(bases)];
        let mut read_starts = Vec::with_capacity(reads.len() + 1);
        let mut ids = Vec::with_capacity(reads.len());
        let mut at = 0usize;
        let mut kmers = 0usize;
        for &(id, seq) in reads {
            read_starts.push(at as u32);
            ids.push(id);
            let view = seq.packed();
            for off in (0..view.len()).step_by(BASES_PER_WORD) {
                // Bases past the read's end come back zero, so OR-ing the
                // chunk in leaves the next read's bits untouched.
                let chunk = view.window(off);
                let (w, sh) = ((at + off) / BASES_PER_WORD, (at + off) % BASES_PER_WORD * 2);
                words[w] |= chunk << sh;
                if sh > 0 {
                    words[w + 1] |= chunk >> (64 - sh);
                }
            }
            at += seq.len();
            kmers += (seq.len() + 1).saturating_sub(k);
        }
        read_starts.push(bases as u32);

        let kmer_mask = u64::MAX >> (64 - 2 * k);
        let buckets = 1usize << (2 * dir_bases(kmers, k));
        let bucket = |pos: u32| window(&words, pos as usize) as usize & (buckets - 1);
        let mut dir = vec![0u32; buckets + 1];
        for pos in kmer_starts(&read_starts, k) {
            dir[bucket(pos) + 1] += 1;
        }
        for b in 1..dir.len() {
            dir[b] += dir[b - 1];
        }
        // `dir[b]` is bucket b's start and serves as its write cursor, so
        // after the scatter it is bucket b's end — the next bucket's start.
        let mut positions = vec![0u32; kmers];
        for pos in kmer_starts(&read_starts, k) {
            let cursor = &mut dir[bucket(pos)];
            positions[*cursor as usize] = pos;
            *cursor += 1;
        }
        dir.copy_within(..buckets, 1);
        dir[0] = 0;
        for range in dir.windows(2) {
            positions[range[0] as usize..range[1] as usize]
                .sort_unstable_by_key(|&pos| (window(&words, pos as usize) & kmer_mask, pos));
        }
        KmerIndex {
            words,
            positions,
            dir,
            read_starts,
            ids,
            kmer_mask,
        }
    }

    /// Every occurrence of the packed k-mer `kmer` (as produced by
    /// [`DnaString::kmer_u64`] for the `k` the index was built with) as
    /// `(read id, offset within that read)`. A k-mer spanning two reads is
    /// not an occurrence.
    pub fn hits(&self, kmer: u64) -> impl Iterator<Item = (ReadId, u32)> + '_ {
        let kmer_at = move |pos: u32| window(&self.words, pos as usize) & self.kmer_mask;
        // `dir.len() - 2` is `4^p - 1`, the mask of the first p bases.
        let b = kmer as usize & (self.dir.len() - 2);
        let mut bucket = &self.positions[self.dir[b] as usize..self.dir[b + 1] as usize];
        if bucket.len() > LINEAR_SCAN_MAX {
            let lo = bucket.partition_point(|&pos| kmer_at(pos) < kmer);
            bucket = &bucket[lo..];
            bucket = &bucket[..bucket.partition_point(|&pos| kmer_at(pos) == kmer)];
        }
        bucket
            .iter()
            .filter(move |&&pos| kmer_at(pos) == kmer)
            .map(move |&pos| {
                let read = self.read_starts.partition_point(|&start| start <= pos) - 1;
                (self.ids[read], pos - self.read_starts[read])
            })
    }

    /// Bytes of heap the index holds.
    pub fn heap_bytes(&self) -> u64 {
        (self.words.capacity() * 8
            + (self.positions.capacity() + self.dir.capacity() + self.read_starts.capacity()) * 4
            + self.ids.capacity() * std::mem::size_of::<ReadId>()) as u64
    }

    /// What [`KmerIndex::heap_bytes`] will be for a subset of `reads` reads
    /// totalling `bases` bases, from the layout alone — what the memory
    /// ledger charges for it. Exact when every read has at least `k - 1`
    /// bases; shorter reads make it an underestimate by at most `4 (k - 1)`
    /// bytes each.
    pub fn estimated_bytes(bases: usize, reads: usize, k: usize) -> u64 {
        let kmers = bases.saturating_sub(reads.saturating_mul(k.saturating_sub(1)));
        let dir = (1u64 << (2 * dir_bases(kmers, k))) + 1;
        (words_for(bases) as u64 * 8)
            .saturating_add((kmers as u64 + dir + 2 * reads as u64 + 1).saturating_mul(4))
    }
}

/// What seeding asks of an index. [`KmerIndex`] is the only implementation
/// the product builds; the trait is the seam through which the tests run the
/// whole overlapper over [`NaiveIndex`].
pub(crate) trait SeedIndex {
    /// See [`KmerIndex::hits`].
    fn hits(&self, kmer: u64) -> impl Iterator<Item = (ReadId, u32)> + '_;
}

impl SeedIndex for KmerIndex {
    fn hits(&self, kmer: u64) -> impl Iterator<Item = (ReadId, u32)> + '_ {
        KmerIndex::hits(self, kmer)
    }
}

/// The index the tests trust: every lookup scans every read.
#[cfg(test)]
pub(crate) struct NaiveIndex {
    reads: Vec<(ReadId, DnaString)>,
    k: usize,
}

#[cfg(test)]
impl NaiveIndex {
    pub(crate) fn build(reads: &[(ReadId, &DnaString)], k: usize) -> NaiveIndex {
        NaiveIndex {
            reads: reads.iter().map(|&(id, seq)| (id, seq.clone())).collect(),
            k,
        }
    }
}

#[cfg(test)]
impl SeedIndex for NaiveIndex {
    fn hits(&self, kmer: u64) -> impl Iterator<Item = (ReadId, u32)> + '_ {
        self.reads.iter().flat_map(move |(id, seq)| {
            seq.kmers(self.k)
                .filter(move |&(_, found)| found == kmer)
                .map(move |(pos, _)| (*id, pos as u32))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_rng::Rng;

    fn random_seq(rng: &mut Rng, len: usize, alphabet: u8) -> DnaString {
        (0..len)
            .map(|_| fc_seq::Base::from_code(rng.range(0..alphabet)))
            .collect()
    }

    fn with_ids(seqs: &[DnaString]) -> Vec<(ReadId, &DnaString)> {
        // Ids are not positions: the index must report what it was given.
        seqs.iter()
            .enumerate()
            .map(|(i, s)| (ReadId(3 * i as u32 + 1), s))
            .collect()
    }

    fn parse(seqs: &[&str]) -> Vec<DnaString> {
        seqs.iter().map(|s| s.parse().unwrap()).collect()
    }

    /// Both indexes answer `kmer` with the same hits, order aside.
    fn assert_same_hits(index: &KmerIndex, naive: &NaiveIndex, kmer: u64, what: &str) {
        let mut got: Vec<_> = index.hits(kmer).collect();
        let mut want: Vec<_> = naive.hits(kmer).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "{what}, k-mer {kmer:#x}");
    }

    /// Every k-mer the reads contain, every k-mer spanning a read boundary,
    /// and a few hundred random ones, against the naive scan. Returns the
    /// hits seen, so a caller can tell a comparison of nothing with nothing.
    fn check_against_oracle(seqs: &[DnaString], k: usize, what: &str) -> usize {
        let reads = with_ids(seqs);
        let index = KmerIndex::build(&reads, k);
        let naive = NaiveIndex::build(&reads, k);
        assert_eq!(index.ids.len(), seqs.len());
        let mut joined = DnaString::new();
        for seq in seqs {
            joined.extend_from(seq);
        }
        let mut total = 0;
        for (_, kmer) in joined.kmers(k) {
            assert_same_hits(&index, &naive, kmer, what);
            total += index.hits(kmer).count();
        }
        let mut rng = Rng::new(k as u64 + 1);
        for _ in 0..300 {
            let kmer = rng.next_u64() & index.kmer_mask;
            assert_same_hits(&index, &naive, kmer, what);
        }
        total
    }

    #[test]
    fn matches_the_naive_scan_at_every_k() {
        let mut rng = Rng::new(41);
        // Lengths straddle every k below and the 32-base word; the total is
        // not a multiple of 32 here and is one in the next test.
        let lens = [100, 3, 0, 64, 33, 15, 31, 32, 1, 97, 16, 250, 9, 40];
        let random: Vec<DnaString> = lens.iter().map(|&n| random_seq(&mut rng, n, 4)).collect();
        // A two-letter alphabet repeats k-mers, so small k fills buckets.
        let repetitive: Vec<DnaString> = lens
            .iter()
            .map(|&n| random_seq(&mut rng, 2 * n, 2))
            .collect();
        for k in [1, 4, 9, 10, 15, 16, 31, 32] {
            assert!(check_against_oracle(&random, k, &format!("random reads, k={k}")) > 0);
            assert!(check_against_oracle(&repetitive, k, &format!("repetitive reads, k={k}")) > 0);
        }
    }

    #[test]
    fn finds_the_last_kmer_of_the_last_read() {
        // 64 bases: the last k-mers' windows run into the padding word.
        let mut rng = Rng::new(5);
        let seqs = vec![random_seq(&mut rng, 40, 4), random_seq(&mut rng, 24, 4)];
        for k in [1, 15, 24] {
            let reads = with_ids(&seqs);
            let index = KmerIndex::build(&reads, k);
            let last = seqs[1].kmer_u64(24 - k, k).unwrap();
            assert!(
                index
                    .hits(last)
                    .any(|hit| hit == (reads[1].0, (24 - k) as u32)),
                "k={k}"
            );
            check_against_oracle(&seqs, k, &format!("word-aligned total, k={k}"));
        }
    }

    #[test]
    fn k_32_uses_the_whole_window() {
        let mut rng = Rng::new(77);
        let seq = random_seq(&mut rng, 40, 4);
        // Differs from the read's first 32-mer in its last base only.
        let mut near = seq.slice(0, 32);
        near.set(31, near.get(31).complement());
        let seqs = vec![seq];
        let reads = with_ids(&seqs);
        let index = KmerIndex::build(&reads, 32);
        assert_eq!(index.kmer_mask, u64::MAX);
        let first = seqs[0].kmer_u64(0, 32).unwrap();
        assert_eq!(index.hits(first).collect::<Vec<_>>(), vec![(reads[0].0, 0)]);
        assert_eq!(index.hits(near.kmer_u64(0, 32).unwrap()).count(), 0);
    }

    #[test]
    fn empty_subset_and_short_reads_have_no_hits() {
        let empty = KmerIndex::build(&[], 15);
        assert_eq!(empty.hits(0).count(), 0);
        assert_eq!(empty.hits(empty.kmer_mask).count(), 0);

        // Poly-A reads shorter than k: k-mer 0 matches their zero bits and
        // the padding, and must still not be reported.
        let seqs = parse(&["AAAAAAAAAAAAAA", "AAAA", ""]);
        let index = KmerIndex::build(&with_ids(&seqs), 15);
        assert!(index.positions.is_empty());
        assert_eq!(index.hits(0).count(), 0);
        check_against_oracle(&seqs, 15, "reads shorter than k");
    }

    #[test]
    fn no_hit_across_a_read_boundary() {
        // "AC" ends read 0 and "GT" begins read 1; ACGT occurs nowhere else.
        let seqs = parse(&["AAAC", "GTTT"]);
        let index = KmerIndex::build(&with_ids(&seqs), 4);
        let acgt: DnaString = "ACGT".parse().unwrap();
        assert_eq!(index.hits(acgt.kmer_u64(0, 4).unwrap()).count(), 0);
        check_against_oracle(&seqs, 4, "boundary");
    }

    #[test]
    fn a_repeat_longer_than_the_linear_scan_is_searched() {
        // 40 copies of one 20-mer plus noise that shares its first bases:
        // one bucket holds far more than LINEAR_SCAN_MAX positions and
        // several distinct k-mers.
        let mut rng = Rng::new(9);
        let unit = random_seq(&mut rng, 20, 4);
        let mut seqs = Vec::new();
        for i in 0..40 {
            let mut seq = random_seq(&mut rng, i % 7, 4);
            seq.extend_from(&unit);
            seq.extend_from(&random_seq(&mut rng, 5, 4));
            seqs.push(seq);
        }
        for tail in 0..30 {
            let mut seq = unit.slice(0, 12);
            seq.extend_from(&random_seq(&mut rng, 8 + tail % 3, 4));
            seqs.push(seq);
        }
        let reads = with_ids(&seqs);
        let index = KmerIndex::build(&reads, 15);
        let repeat = unit.kmer_u64(0, 15).unwrap();
        let b = repeat as usize & (index.dir.len() - 2);
        assert!((index.dir[b + 1] - index.dir[b]) as usize > LINEAR_SCAN_MAX);
        assert!(index.hits(repeat).count() >= 40);
        check_against_oracle(&seqs, 15, "repeat");
    }

    #[test]
    fn estimate_covers_the_heap_and_stays_close() {
        let mut rng = Rng::new(3);
        for (reads, len) in [(0usize, 0usize), (1, 100), (480, 300), (6600, 100)] {
            let seqs: Vec<DnaString> = (0..reads).map(|_| random_seq(&mut rng, len, 4)).collect();
            let index = KmerIndex::build(&with_ids(&seqs), 15);
            let (heap, estimated) = (
                index.heap_bytes(),
                KmerIndex::estimated_bytes(reads * len, reads, 15),
            );
            assert!(estimated >= heap, "{reads}x{len}: {estimated} < {heap}");
            assert!(
                estimated * 4 <= heap * 5,
                "{reads}x{len}: {estimated} > 1.25 x {heap}"
            );
            // The ooc-t2 budget is sized for at most 6.5 bytes per base.
            assert!(heap * 2 <= (reads * len) as u64 * 13 + 64, "{reads}x{len}");
        }
    }

    #[test]
    fn directory_scales_with_the_subset() {
        assert_eq!(dir_bases(0, 15), 0);
        assert_eq!(dir_bases(7, 15), 0);
        assert_eq!(dir_bases(8, 15), 1);
        assert_eq!(dir_bases(18_000, 15), 6); // 4^6 = 4096 <= 9000 < 4^7
        assert_eq!(dir_bases(567_600, 15), 9);
        assert_eq!(dir_bases(567_600, 4), 4); // never wider than the k-mer
        assert_eq!(dir_bases(u32::MAX as usize, 32), 15);
    }
}
