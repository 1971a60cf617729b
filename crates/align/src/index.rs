//! The seed index: a bucketed table of packed k-mer positions over a read
//! subset.
//!
//! The paper indexes each reference subset with a suffix array (§II-B).
//! Seeding asks that index one question — where does this k-mer occur? — for
//! the one configured `k`, and diagonal voting is indifferent to the order
//! the occurrences come back in, so suffix order buys nothing. [`KmerIndex`]
//! keeps the subset's reads concatenated at two bits per base and one `u32`
//! entry per in-read k-mer start, grouped by a directory over the k-mer's
//! first `p` bases with each group sorted by `(k-mer, entry)`.
//!
//! An entry is `read << off_bits | offset`: the read's rank in the subset
//! above the k-mer's offset within it, `off_bits` wide enough for the
//! subset's longest read. Ranks follow concatenation order, so entry order
//! *is* position order, and a hit is decoded with a shift and a mask — no
//! search over the read boundaries. The price is the capacity rule
//! `reads << off_bits <= 2^32` (asserted in [`KmerIndex::build`] beside
//! `bases <= u32::MAX`): 33 million reads of up to 128 bases, or one
//! million of up to 4 096.
//!
//! One bit per entry (`run_start`, plus a sentinel bit past the last entry)
//! marks where a run of equal k-mers starts. A lookup is one directory read,
//! then one 64-bit window of the packed text per *distinct* k-mer it passes:
//! it walks the bucket's run starts (a binary search takes over after
//! [`RUN_WALK_MAX`] of them), stops at the first k-mer not below the query,
//! and returns that run whole — its other entries were proven equal when
//! the bucket was sorted. It returns the same hit multiset the suffix-array
//! interval did (DESIGN.md §2). [`KmerIndex::runs`] looks up one query
//! read's k-mers together, all directory reads first, then all walks.

use fc_seq::packed::BASES_PER_WORD;
use fc_seq::{DnaString, ReadId};

/// Run starts a lookup walks from the front of its bucket before it
/// binary-searches what is left, so a lookup derives at most this many
/// k-mers plus `log2` of the bucket. Measured on `focus-bench`'s `incore-t1`
/// seed 1 (8x coverage, both strands; 1 657 810 lookups): a looked-up
/// bucket holds 5.0 runs (11 entries) on average, the walk derives 3.11
/// k-mers a lookup and 98.2 % of lookups end within 8, where searching
/// every bucket longer than 8 entries first — the rule this replaced —
/// pays `log2(len) + 1 >= 5` (seed + vote 0.21–0.25 s against 0.16–0.20 s
/// when the walk came in, medians of 25, four alternated runs each;
/// 0.12–0.15 s on a 2-core x86-64 host now that lookups are staged per
/// read). The search is for the other regime, a bucket of many distinct
/// k-mers (low coverage, a low-complexity prefix), which the ruler does not
/// have.
const RUN_WALK_MAX: usize = 8;

/// K-mer positions of one read subset, for one `k`.
#[derive(Debug, Clone)]
pub struct KmerIndex {
    /// The reads' bases back to back, 32 per word, then one zero word so a
    /// window starting at the last base needs no bounds case.
    words: Vec<u64>,
    /// Every in-read k-mer start as `read << off_bits | offset`, grouped by
    /// bucket, each bucket sorted by `(k-mer, entry)`.
    positions: Vec<u32>,
    /// Bit `i` is set where `positions[i]` starts a run of equal k-mers (a
    /// bucket's first entry always does); bit `positions.len()` is a
    /// sentinel, so the search for the next run start always ends.
    run_start: Vec<u64>,
    /// Bucket `b` — the k-mers whose first `p` bases pack to `b` — is
    /// `positions[dir[b]..dir[b + 1]]`; `dir.len() == 4^p + 1`.
    dir: Vec<u32>,
    /// Start of each read in the concatenation, then the total length.
    read_starts: Vec<u32>,
    /// The reads, in concatenation order.
    ids: Vec<ReadId>,
    /// The low `2k` bits.
    kmer_mask: u64,
    /// Width of an entry's offset field.
    off_bits: u32,
    /// The low `off_bits` bits.
    off_mask: u32,
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

/// Words of run-start bits for `kmers` entries and the sentinel.
fn run_words_for(kmers: usize) -> usize {
    kmers / 64 + 1
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

/// Width of the offset field for a subset of `reads` reads whose longest
/// has `longest` bases.
///
/// # Panics
/// Panics if `reads << width` exceeds `2^32`: a read's rank above that
/// field no longer fits a `u32` entry.
fn offset_bits(reads: usize, longest: usize) -> u32 {
    let bits = usize::BITS - longest.saturating_sub(1).leading_zeros();
    assert!(
        (reads as u128) << bits <= 1 << 32,
        "{reads} reads of up to {longest} bases do not fit u32 (read, offset) entries"
    );
    bits
}

impl KmerIndex {
    /// Indexes the k-mers of `reads` (id + sequence pairs).
    ///
    /// Two counting passes size the position array and its buckets, a third
    /// pass scatters, and each bucket is then keyed by k-mer into one reused
    /// scratch vector (as long as the longest bucket, dropped on return),
    /// sorted, written back and run-marked.
    ///
    /// # Panics
    /// Panics if `k` is outside `1..=32`, the subset has `2^32` bases or
    /// more, or `reads << off_bits` exceeds `2^32`, `off_bits` being the bit
    /// width of the longest read's last offset.
    pub fn build(reads: &[(ReadId, &DnaString)], k: usize) -> KmerIndex {
        assert!((1..=32).contains(&k), "k must be in 1..=32");
        let bases: usize = reads.iter().map(|(_, seq)| seq.len()).sum();
        assert!(
            bases <= u32::MAX as usize,
            "a subset's bases must fit u32 positions"
        );
        let longest = reads.iter().map(|(_, seq)| seq.len()).max().unwrap_or(0);
        let off_bits = offset_bits(reads.len(), longest);
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

        let mut index = KmerIndex {
            words,
            positions: Vec::new(),
            run_start: Vec::new(),
            dir: Vec::new(),
            read_starts,
            ids,
            kmer_mask: u64::MAX >> (64 - 2 * k),
            off_bits,
            off_mask: ((1u64 << off_bits) - 1) as u32,
        };
        let buckets = 1usize << (2 * dir_bases(kmers, k));
        let bucket = |pos: usize| window(&index.words, pos) as usize & (buckets - 1);
        let mut dir = vec![0u32; buckets + 1];
        index.for_each_kmer_start(k, |_, pos| dir[bucket(pos) + 1] += 1);
        for b in 1..dir.len() {
            dir[b] += dir[b - 1];
        }
        // `dir[b]` is bucket b's start and serves as its write cursor, so
        // after the scatter it is bucket b's end — the next bucket's start.
        let mut positions = vec![0u32; kmers];
        index.for_each_kmer_start(k, |entry, pos| {
            let cursor = &mut dir[bucket(pos)];
            positions[*cursor as usize] = entry;
            *cursor += 1;
        });
        dir.copy_within(..buckets, 1);
        dir[0] = 0;
        let mut run_start = vec![0u64; run_words_for(kmers)];
        let mut mark = |i: usize| run_start[i / 64] |= 1 << (i % 64);
        let mut keyed: Vec<(u64, u32)> = Vec::new();
        for range in dir.windows(2) {
            let (lo, hi) = (range[0] as usize, range[1] as usize);
            keyed.clear();
            keyed.extend(
                positions[lo..hi]
                    .iter()
                    .map(|&entry| (index.kmer_at(entry), entry)),
            );
            keyed.sort_unstable();
            for (i, &(kmer, entry)) in keyed.iter().enumerate() {
                positions[lo + i] = entry;
                if i == 0 || keyed[i - 1].0 != kmer {
                    mark(lo + i);
                }
            }
        }
        mark(kmers);
        index.positions = positions;
        index.run_start = run_start;
        index.dir = dir;
        index
    }

    /// Calls `visit(entry, position in the concatenation)` for every in-read
    /// k-mer start, in concatenation order — which is entry order.
    fn for_each_kmer_start(&self, k: usize, mut visit: impl FnMut(u32, usize)) {
        for (read, w) in self.read_starts.windows(2).enumerate() {
            let rank = ((read as u64) << self.off_bits) as u32;
            for offset in 0..(w[1] - w[0]).saturating_sub(k as u32 - 1) {
                visit(rank | offset, (w[0] + offset) as usize);
            }
        }
    }

    /// An entry's read rank and offset within that read.
    #[inline]
    fn split(&self, entry: u32) -> (usize, u32) {
        // Shifted as u64: a single read past 2^31 bases has `off_bits == 32`.
        (
            (entry as u64 >> self.off_bits) as usize,
            entry & self.off_mask,
        )
    }

    /// The k-mer `entry` points at, read from the concatenation.
    #[inline]
    fn kmer_at(&self, entry: u32) -> u64 {
        let (read, offset) = self.split(entry);
        window(&self.words, (self.read_starts[read] + offset) as usize) & self.kmer_mask
    }

    /// The first run start after entry `i`; `positions.len()` after the last.
    #[inline]
    fn next_run(&self, i: usize) -> usize {
        let mut w = (i + 1) / 64;
        let mut bits = self.run_start[w] & u64::MAX << ((i + 1) % 64);
        while bits == 0 {
            w += 1;
            bits = self.run_start[w];
        }
        w * 64 + bits.trailing_zeros() as usize
    }

    /// The entry range of `kmer`'s bucket: the lookup's directory read.
    #[inline]
    fn bucket(&self, kmer: u64) -> (u32, u32) {
        // `dir.len() - 2` is `4^p - 1`, the mask of the first p bases.
        let b = kmer as usize & (self.dir.len() - 2);
        (self.dir[b], self.dir[b + 1])
    }

    /// The entries of `bucket` whose k-mer is `kmer`: one run, or an empty
    /// range. Only run starts are compared with the text; a run's other
    /// entries were equal to its first when the bucket was sorted.
    #[inline]
    fn run_in(&self, kmer: u64, bucket: (u32, u32)) -> (u32, u32) {
        let (mut i, end) = (bucket.0 as usize, bucket.1 as usize);
        let mut walk = RUN_WALK_MAX;
        while i < end {
            let found = self.kmer_at(self.positions[i]);
            if found >= kmer {
                if found == kmer {
                    return (i as u32, self.next_run(i) as u32);
                }
                break;
            }
            walk -= 1;
            i = if walk > 0 {
                self.next_run(i)
            } else {
                // Lands on the first k-mer not below the query, or on `end`:
                // either way the loop is over at its next turn.
                i + self.positions[i..end].partition_point(|&entry| self.kmer_at(entry) < kmer)
            };
        }
        (0, 0)
    }

    /// Looks up every k-mer of `kmers` (packed as by
    /// [`DnaString::kmer_u64`] for the `k` the index was built with):
    /// `out[i]`, cleared first, is the entry range of `kmers[i]`'s run, for
    /// [`KmerIndex::hits_of`]. A first pass reads every k-mer's directory
    /// bounds, a second walks each bucket to its run, so one read's
    /// directory loads are in flight together instead of each waiting
    /// behind the previous k-mer's walk.
    pub fn runs(&self, kmers: &[u64], out: &mut Vec<(u32, u32)>) {
        out.clear();
        out.extend(kmers.iter().map(|&kmer| self.bucket(kmer)));
        for (range, &kmer) in out.iter_mut().zip(kmers) {
            *range = self.run_in(kmer, *range);
        }
    }

    /// The occurrences in an entry range from [`KmerIndex::runs`], as
    /// `(read id, offset within that read)`.
    #[inline]
    pub fn hits_of(&self, range: (u32, u32)) -> impl Iterator<Item = (ReadId, u32)> + '_ {
        self.positions[range.0 as usize..range.1 as usize]
            .iter()
            .map(move |&entry| {
                let (read, offset) = self.split(entry);
                (self.ids[read], offset)
            })
    }

    /// Every occurrence of the packed k-mer `kmer`: [`KmerIndex::runs`] for
    /// one k-mer. A k-mer spanning two reads is not an occurrence.
    pub fn hits(&self, kmer: u64) -> impl Iterator<Item = (ReadId, u32)> + '_ {
        self.hits_of(self.run_in(kmer, self.bucket(kmer)))
    }

    /// Bytes of heap the index holds.
    pub fn heap_bytes(&self) -> u64 {
        ((self.words.capacity() + self.run_start.capacity()) * 8
            + (self.positions.capacity() + self.dir.capacity() + self.read_starts.capacity()) * 4
            + self.ids.capacity() * std::mem::size_of::<ReadId>()) as u64
    }

    /// What [`KmerIndex::heap_bytes`] will be for a subset of `reads` reads
    /// totalling `bases` bases, from the layout alone — what the memory
    /// ledger charges for it. Exact when every read has at least `k - 1`
    /// bases; shorter reads make it an underestimate by about `4 (k - 1)`
    /// bytes each.
    pub fn estimated_bytes(bases: usize, reads: usize, k: usize) -> u64 {
        let kmers = bases.saturating_sub(reads.saturating_mul(k.saturating_sub(1)));
        let dir = (1u64 << (2 * dir_bases(kmers, k))) + 1;
        ((words_for(bases) + run_words_for(kmers)) as u64 * 8)
            .saturating_add((kmers as u64 + dir + 2 * reads as u64 + 1).saturating_mul(4))
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

    /// The index the tests trust: each read's k-mers, one `get` per base,
    /// and every lookup scans them all.
    struct NaiveIndex(Vec<(ReadId, Vec<u64>)>);

    impl NaiveIndex {
        fn build(reads: &[(ReadId, &DnaString)], k: usize) -> NaiveIndex {
            let kmer_at = |seq: &DnaString, pos: usize| {
                (0..k).fold(0, |kmer, i| {
                    kmer | (seq.get(pos + i).code() as u64) << (2 * i)
                })
            };
            NaiveIndex(
                reads
                    .iter()
                    .map(|&(id, seq)| {
                        let kmers = (seq.len() + 1).saturating_sub(k);
                        (id, (0..kmers).map(|pos| kmer_at(seq, pos)).collect())
                    })
                    .collect(),
            )
        }

        /// See [`KmerIndex::hits`].
        fn hits(&self, kmer: u64) -> impl Iterator<Item = (ReadId, u32)> + '_ {
            self.0.iter().flat_map(move |(id, kmers)| {
                let at = kmers
                    .iter()
                    .enumerate()
                    .filter(move |&(_, &found)| found == kmer);
                at.map(move |(pos, _)| (*id, pos as u32))
            })
        }
    }

    /// `got` holds the naive index's hits of `kmer`, order aside; returns
    /// how many there are.
    fn assert_same_hits(
        got: impl Iterator<Item = (ReadId, u32)>,
        naive: &NaiveIndex,
        kmer: u64,
        what: &str,
    ) -> usize {
        let mut got: Vec<_> = got.collect();
        let mut want: Vec<_> = naive.hits(kmer).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "{what}, k-mer {kmer:#x}");
        got.len()
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
            total += assert_same_hits(index.hits(kmer), &naive, kmer, what);
        }
        let mut rng = Rng::new(k as u64 + 1);
        for _ in 0..300 {
            let kmer = rng.next_u64() & index.kmer_mask;
            assert_same_hits(index.hits(kmer), &naive, kmer, what);
        }
        total
    }

    /// Random reads, and reads over a two-letter alphabet: those repeat
    /// k-mers, so small k fills buckets.
    fn random_and_repetitive_reads() -> [(&'static str, Vec<DnaString>); 2] {
        let mut rng = Rng::new(41);
        // Lengths straddle every k tested and the 32-base word; the total is
        // not a multiple of 32 here and is one in
        // `finds_the_last_kmer_of_the_last_read`.
        let lens = [100, 3, 0, 64, 33, 15, 31, 32, 1, 97, 16, 250, 9, 40];
        let random = lens.iter().map(|&n| random_seq(&mut rng, n, 4)).collect();
        let repetitive = lens
            .iter()
            .map(|&n| random_seq(&mut rng, 2 * n, 2))
            .collect();
        [("random", random), ("repetitive", repetitive)]
    }

    #[test]
    fn matches_the_naive_scan_at_every_k() {
        for (name, seqs) in random_and_repetitive_reads() {
            for k in [1, 4, 9, 10, 15, 16, 31, 32] {
                assert!(check_against_oracle(&seqs, k, &format!("{name} reads, k={k}")) > 0);
            }
        }
    }

    fn marked(index: &KmerIndex, i: usize) -> bool {
        index.run_start[i / 64] >> (i % 64) & 1 == 1
    }

    #[test]
    fn run_marks_are_one_per_distinct_kmer_of_a_bucket() {
        for (name, seqs) in random_and_repetitive_reads() {
            for k in [1, 4, 9, 15, 16, 31, 32] {
                let index = KmerIndex::build(&with_ids(&seqs), k);
                let mut runs = 0;
                for (b, range) in index.dir.windows(2).enumerate() {
                    let (lo, hi) = (range[0] as usize, range[1] as usize);
                    let distinct: std::collections::BTreeSet<u64> = index.positions[lo..hi]
                        .iter()
                        .map(|&entry| index.kmer_at(entry))
                        .collect();
                    let marks = (lo..hi).filter(|&i| marked(&index, i)).count();
                    assert_eq!(marks, distinct.len(), "{name}, k={k}, bucket {b}");
                    assert!(lo == hi || marked(&index, lo), "{name}, k={k}, bucket {b}");
                    runs += marks;
                }
                // The sentinel, and nothing after it.
                let bits: u32 = index.run_start.iter().map(|w| w.count_ones()).sum();
                assert!(marked(&index, index.positions.len()), "{name}, k={k}");
                assert_eq!(bits as usize, runs + 1, "{name}, k={k}");
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // 36 million oracle compares
    fn one_long_read_among_short_ones_and_a_full_offset_field() {
        let mut rng = Rng::new(23);
        // Ranks on both sides of the read that sets `off_bits`.
        let mut mixed: Vec<DnaString> = (0..10).map(|_| random_seq(&mut rng, 100, 4)).collect();
        mixed.insert(4, random_seq(&mut rng, 5000, 4));
        assert_eq!(KmerIndex::build(&with_ids(&mixed), 15).off_bits, 13);
        assert!(check_against_oracle(&mixed, 15, "5000 among 100s") > 0);

        // Offsets 0..=63 at k = 1: every value of a six-bit field is used.
        let equal: Vec<DnaString> = (0..20).map(|_| random_seq(&mut rng, 64, 4)).collect();
        let index = KmerIndex::build(&with_ids(&equal), 1);
        assert_eq!((index.off_bits, index.off_mask), (6, 63));
        assert!(index.positions.contains(&(19 << 6 | 63)));
        for k in [1, 15] {
            assert!(check_against_oracle(&equal, k, &format!("64-base reads, k={k}")) > 0);
        }
    }

    #[test]
    fn offset_field_is_as_wide_as_the_longest_reads_last_offset() {
        assert_eq!(offset_bits(0, 0), 0);
        assert_eq!(offset_bits(5, 1), 0);
        assert_eq!(offset_bits(1, 64), 6);
        assert_eq!(offset_bits(1, 65), 7);
        assert_eq!(offset_bits(1 << 19, 8192), 13); // exactly 2^32
        assert_eq!(offset_bits(1, u32::MAX as usize), 32);
    }

    #[test]
    #[should_panic(expected = "do not fit u32 (read, offset) entries")]
    fn too_many_reads_for_their_offset_field_are_refused() {
        // 2^20 reads x 13 offset bits = 2^33, though 2^20 x 100 bases plus
        // one 5 000-base read would fit u32 positions.
        offset_bits(1 << 20, 5000);
    }

    /// What the overlapper asks and of what: every read's sampled k-mers,
    /// one `runs` batch per read, from a store with substituted,
    /// indel-bearing and tandem-repeat reads, against each subset's index
    /// at three subset counts. Equal hit multisets here are equal votes,
    /// candidates, requests and overlaps there: nothing downstream of
    /// `hits_of` looks at the index again.
    #[test]
    #[cfg_attr(miri, ignore)] // a hundred thousand naive scans
    fn sampled_query_kmers_of_a_noisy_store_match_the_naive_scan() {
        use crate::pairwise::tests::{noisy_tiled_store, random_genome};
        let store = noisy_tiled_store(&random_genome(900, 17), 5);
        let config = crate::OverlapConfig::default();
        let (mut kmers, mut runs) = (Vec::new(), Vec::new());
        let mut hits = 0;
        for n in [1usize, 4, 5] {
            for (j, reference) in store.split_subsets(n).iter().enumerate() {
                let reads: Vec<(ReadId, &DnaString)> = reference
                    .iter()
                    .map(|&id| (id, store.get(id)))
                    .collect();
                let index = KmerIndex::build(&reads, config.k);
                let naive = NaiveIndex::build(&reads, config.k);
                for q in store.ids() {
                    kmers.clear();
                    kmers.extend(
                        store
                            .get(q)
                            .kmers(config.k)
                            .step_by(crate::pairwise::SEED_STEP)
                            .map(|(_, kmer)| kmer),
                    );
                    index.runs(&kmers, &mut runs);
                    for (s, (&kmer, &range)) in kmers.iter().zip(&runs).enumerate() {
                        let pos = s * crate::pairwise::SEED_STEP;
                        let what = format!("{n} subsets, reference {j}, read {} at {pos}", q.0);
                        hits += assert_same_hits(index.hits_of(range), &naive, kmer, &what);
                    }
                }
            }
        }
        assert!(hits > 10_000, "{hits} hits");
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

    /// 40 copies of one 20-mer plus noise that shares its first 12 bases,
    /// and the 20-mer: at k = 15 one bucket holds more entries than a
    /// `run_start` word has bits, and dozens of distinct k-mers.
    fn long_bucket_reads() -> (Vec<DnaString>, DnaString) {
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
        (seqs, unit)
    }

    /// The long bucket's distinct k-mers, sorted, and absent k-mers of the
    /// same bucket: below its first, between two of its runs, above its
    /// last.
    fn long_bucket_kmers(index: &KmerIndex, unit: &DnaString) -> (Vec<u64>, [u64; 3]) {
        let dir_mask = index.dir.len() - 2;
        let b = unit.kmer_u64(0, 15).unwrap() as usize & dir_mask;
        let mut distinct: Vec<u64> = index.positions
            [index.dir[b] as usize..index.dir[b + 1] as usize]
            .iter()
            .map(|&entry| index.kmer_at(entry))
            .collect();
        assert!(distinct.len() > 64 && distinct.len() > RUN_WALK_MAX);
        assert!(distinct.is_sorted());
        distinct.dedup();
        assert!(distinct.len() >= 24, "{} distinct k-mers", distinct.len());
        let step = dir_mask as u64 + 1;
        let absent = [
            distinct[0] - step,
            distinct[distinct.len() / 2] + step,
            distinct[distinct.len() - 1] + step,
        ];
        for kmer in absent {
            assert!(kmer <= index.kmer_mask && kmer as usize & dir_mask == b);
            assert!(distinct.binary_search(&kmer).is_err());
        }
        (distinct, absent)
    }

    #[test]
    fn a_bucket_longer_than_the_run_walk_is_searched() {
        let (seqs, unit) = long_bucket_reads();
        let reads = with_ids(&seqs);
        let index = KmerIndex::build(&reads, 15);
        let naive = NaiveIndex::build(&reads, 15);
        let (distinct, absent) = long_bucket_kmers(&index, &unit);
        assert!(index.hits(unit.kmer_u64(0, 15).unwrap()).count() >= 40);
        for kmer in [
            distinct[0],
            distinct[distinct.len() / 2],
            distinct[distinct.len() - 1],
        ] {
            let hits = assert_same_hits(index.hits(kmer), &naive, kmer, "present");
            assert!(hits > 0, "{kmer:#x}");
        }
        for kmer in absent {
            let hits = assert_same_hits(index.hits(kmer), &naive, kmer, "absent");
            assert_eq!(hits, 0, "{kmer:#x}");
        }
        check_against_oracle(&seqs, 15, "repeat");
    }

    /// One `runs` batch per subset — every k-mer of the concatenated reads
    /// (inside a read or spanning a boundary) twice over, random k-mers,
    /// and for the long bucket all its distinct and absent k-mers — and
    /// an empty subset: each k-mer's range holds the naive scan's hits.
    #[test]
    fn runs_match_the_naive_scan() {
        let (long, unit) = long_bucket_reads();
        let mut rng = Rng::new(12);
        let short: Vec<DnaString> = (0..8)
            .map(|i| random_seq(&mut rng, 10 + 7 * i, 4))
            .collect();
        let mut out = vec![(7, 9)]; // stale contents must be cleared
        for (name, seqs) in [
            ("long bucket", long),
            ("short reads", short),
            ("empty", Vec::new()),
        ] {
            let reads = with_ids(&seqs);
            let index = KmerIndex::build(&reads, 15);
            let naive = NaiveIndex::build(&reads, 15);
            let mut joined = DnaString::new();
            for seq in &seqs {
                joined.extend_from(seq);
            }
            let mut batch: Vec<u64> = joined.kmers(15).map(|(_, kmer)| kmer).collect();
            batch.extend(batch.clone().iter().rev());
            batch.extend((0..50).map(|_| rng.next_u64() & index.kmer_mask));
            if name == "long bucket" {
                let (distinct, absent) = long_bucket_kmers(&index, &unit);
                batch.extend(distinct.iter().chain(&absent));
            }
            index.runs(&batch, &mut out);
            assert_eq!(out.len(), batch.len(), "{name}");
            let (mut found, mut missing) = (0, 0);
            for (&kmer, &range) in batch.iter().zip(&out) {
                match assert_same_hits(index.hits_of(range), &naive, kmer, name) {
                    0 => missing += 1,
                    _ => found += 1,
                }
            }
            assert!(missing > 0 && (found > 0 || seqs.is_empty()), "{name}");
        }
        // An empty batch leaves nothing behind.
        KmerIndex::build(&[], 15).runs(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn a_run_spanning_a_whole_bitmap_word_is_hopped() {
        // 150 reads that are one and the same 15-mer: wherever its run
        // starts, it covers an all-zero `run_start` word, between other runs.
        let mut rng = Rng::new(31);
        let unit = random_seq(&mut rng, 15, 4);
        let mut seqs: Vec<DnaString> = (0..10).map(|_| random_seq(&mut rng, 40, 4)).collect();
        seqs.extend(std::iter::repeat_n(unit.clone(), 150));
        seqs.extend((0..10).map(|_| random_seq(&mut rng, 40, 4)));
        let index = KmerIndex::build(&with_ids(&seqs), 15);
        assert!(index.run_start.contains(&0));
        assert_eq!(index.hits(unit.kmer_u64(0, 15).unwrap()).count(), 150);
        check_against_oracle(&seqs, 15, "a 150-entry run");
    }

    #[test]
    #[cfg_attr(miri, ignore)] // 6 600 reads: minutes under the interpreter
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
