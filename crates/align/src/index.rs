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
//! An entry is `tag << tag_shift | read << off_bits | offset`. Its low bits
//! are the read's rank in the subset above the k-mer's offset within it,
//! `off_bits` wide enough for the subset's longest read. Ranks follow
//! concatenation order, so `(read, offset)` order *is* position order, and a
//! hit is decoded with a mask, a shift and a mask — no search over the read
//! boundaries. The price is the capacity rule `reads << off_bits <= 2^32`
//! (with `bases <= u32::MAX`, the one check [`KmerIndex::check_capacity`],
//! which callers run before any build): 33 million reads of up to 128
//! bases, or one million of up to 4 096.
//!
//! The bits that rule leaves free hold a *tag*: the top bits of the k-mer's
//! suffix, the bases after the directory's `p`, as many as fit
//! (`tag_bits`). A bucket's k-mers share their first `p` bases, so within
//! it k-mer order is suffix order, and sorting by `(k-mer, entry)` sorts the
//! entries by tag as well. On the ruler's subsets (13 rank and 7 offset bits,
//! `p = 8`) the tag is 12 bits, six of the suffix's seven bases.
//!
//! One bit per entry (`run_start`, plus a sentinel bit past the last entry)
//! marks where a run of equal k-mers starts. A lookup reads the directory,
//! then binary-searches the bucket's contiguous entries for the first whose
//! tag is not below the query's, reading no text. The entries from there
//! that carry the query's tag are its *block*, and a lookup whose tag is
//! absent ends there. Where the tag is the whole suffix the block is the
//! run, ending at the next run start. Otherwise the lookup reads one 64-bit
//! window of the packed text per *distinct* k-mer it passes inside the
//! block: it walks the block's run starts (a binary search takes over after
//! `RUN_WALK_MAX` (8) of them), stops at the first k-mer not below the
//! query, and returns that run whole — its other entries were proven equal
//! when the bucket was sorted. Either way the run is the one an untagged
//! walk of the whole bucket finds, so lookups return the same hit multiset,
//! in the same order, as the suffix-array interval did (DESIGN.md §2).
//! [`KmerIndex::runs`] looks up one query read's k-mers together: all
//! directory reads, then all block searches, then all text reads.

use crate::error::AlignError;
use fc_exec::Pool;
use fc_obs::Recorder;
use fc_seq::packed::BASES_PER_WORD;
use fc_seq::{PackedView, ReadId};
use std::ops::Range;

/// Run starts a lookup walks inside its tag block before it binary-searches
/// what is left of the block, so a lookup reads at most this many text
/// windows plus `log2` of the block. Measured on `focus-bench`'s `incore-t1`
/// seed 1 (8x coverage, both strands; 1 657 810 lookups): the 12-bit tag
/// leaves 2 of the suffix's 14 bits to the text, so a block holds at most 4
/// distinct k-mers and no walk reaches the bound. Lookups read 0.85 text
/// windows each, against 3.11 when the walk started at the front of the
/// bucket (5.0 runs on average), and all of them took a median 0.049–0.078
/// s against 0.094–0.126 s (30 rounds, eight alternated runs each, 2-core
/// x86-64). The search is for a block the tag cannot split — tag width 0 at
/// the `reads << off_bits = 2^32` edge, or many k-mers that differ only in
/// the untagged bits — which the ruler does not have.
const RUN_WALK_MAX: usize = 8;

/// Bucket ranges the sort of one index is split into, each a pool task on
/// its own slice of the positions ([`KmerIndex::build_all`]). A constant,
/// so the task list is the input's, at any thread count; on `incore-t1`'s
/// subsets (≈ 600 000 entries) a range is ≈ 75 000 entries, about 2 ms of
/// sorting.
pub const SORT_RANGES: usize = 8;

/// An index whose entries sit in their buckets unsorted: the first half of
/// a build ([`KmerIndex::scatter`]).
struct Scattered {
    /// Everything but `positions` and `run_start`.
    index: KmerIndex,
    /// Untagged entries, bucket by bucket, each bucket in entry order.
    positions: Vec<u32>,
    /// The run-start bitmap, all clear.
    run_start: Vec<u64>,
}

/// K-mer positions of one read subset, for one `k`.
#[derive(Debug, Clone)]
pub struct KmerIndex {
    /// The reads' bases back to back, 32 per word, then one zero word so a
    /// window starting at the last base needs no bounds case.
    words: Vec<u64>,
    /// Every in-read k-mer start as `tag << tag_shift | read << off_bits |
    /// offset`, grouped by bucket, each bucket sorted by `(k-mer, entry)` —
    /// which sorts it by tag too.
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
    /// Where an entry's tag starts: `32 -` [`tag_bits`].
    tag_shift: u32,
    /// The low `tag_shift` bits: an entry's `(read, offset)`.
    untag: u32,
    /// Whether the tag is the k-mer's whole suffix, so that a tag block is
    /// a run and no text needs reading.
    tag_is_suffix: bool,
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

/// Width of an entry's tag for a subset of `reads` reads with `off_bits`
/// offset bits, whose k-mers leave `suffix_bits` (`2 (k - p)`) bits past the
/// directory's `p` bases: every bit the `(read, offset)` fields leave free,
/// up to the whole suffix. 0 at the capacity edge `reads << off_bits = 2^32`
/// and where the directory covers the whole k-mer.
fn tag_bits(reads: usize, off_bits: u32, suffix_bits: u32) -> u32 {
    let rank_bits = usize::BITS - reads.saturating_sub(1).leading_zeros();
    32u32.saturating_sub(rank_bits + off_bits).min(suffix_bits)
}

/// Width of the offset field for a subset of `reads` reads whose longest
/// has `longest` bases; `None` if `reads << width` exceeds `2^32`, where a
/// read's rank above that field no longer fits a `u32` entry.
fn offset_bits(reads: usize, longest: usize) -> Option<u32> {
    let bits = usize::BITS - longest.saturating_sub(1).leading_zeros();
    ((reads as u128) << bits <= 1 << 32).then_some(bits)
}

impl KmerIndex {
    /// The capacity rule: reads of lengths `lens` fit one index if their
    /// bases fit `u32` positions and `reads << off_bits <= 2^32`, `off_bits`
    /// (returned) being the bit width of the longest read's last offset.
    /// Every caller checks all its subsets before it builds any index.
    pub fn check_capacity(lens: impl IntoIterator<Item = usize>) -> Result<u32, AlignError> {
        let (mut reads, mut bases, mut longest) = (0, 0, 0);
        for len in lens {
            (reads, bases, longest) = (reads + 1, bases + len, longest.max(len));
        }
        match offset_bits(reads, longest) {
            Some(bits) if bases <= u32::MAX as usize => Ok(bits),
            _ => Err(AlignError::IndexCapacity { reads, longest }),
        }
    }

    /// Indexes the k-mers of `reads` (id + sequence pairs) in the calling
    /// thread, sorting all buckets in one pass; [`KmerIndex::build_all`]
    /// builds the same index on a pool.
    ///
    /// # Panics
    /// Panics if `k` is outside `1..=32` or [`KmerIndex::check_capacity`]
    /// refuses the subset.
    pub fn build(reads: &[(ReadId, PackedView<'_>)], k: usize) -> KmerIndex {
        let off_bits = match KmerIndex::check_capacity(reads.iter().map(|(_, seq)| seq.len())) {
            Ok(bits) => bits,
            #[expect(clippy::panic, reason = "documented: `build`'s callers check first")]
            Err(e) => panic!("{e}"),
        };
        let Scattered {
            index,
            mut positions,
            mut run_start,
        } = KmerIndex::scatter(reads.iter().copied(), k, off_bits);
        let buckets = 0..index.dir.len() - 1;
        index.sort_buckets(buckets, &mut positions, &mut Vec::new(), |i| {
            run_start[i / 64] |= 1 << (i % 64);
        });
        index.finish(positions, run_start)
    }

    /// Indexes `subsets` subsets, subset `j` being `reads(j)`, each as
    /// [`KmerIndex::build`] does, on `pool`, in two batches whose tasks the
    /// input alone fixes: one pack, count and scatter per subset, then
    /// [`SORT_RANGES`] bucket ranges per subset, each sorted on its own
    /// slice of the positions and marking its runs in the bitmap words its
    /// entries cover alone; the words it shares with a neighbouring range
    /// are merged after the batch. The result is the same at any thread
    /// count. Each scatter task walks its subset's reads straight from
    /// `reads(j)`, no list collected; `off_bits[j]` is what
    /// [`KmerIndex::check_capacity`] returned for subset `j`, which the
    /// caller has checked before any index is built.
    ///
    /// # Panics
    /// Panics if `k` is outside `1..=32`.
    pub fn build_all<'a, I>(
        reads: impl Fn(usize) -> I + Sync,
        off_bits: &[u32],
        k: usize,
        pool: &Pool,
        rec: &Recorder,
    ) -> Vec<KmerIndex>
    where
        I: ExactSizeIterator<Item = (ReadId, PackedView<'a>)> + Clone,
    {
        let mut scattered = pool.map_obs(off_bits.len(), rec, |j| {
            KmerIndex::scatter(reads(j), k, off_bits[j])
        });
        let mut tasks = Vec::with_capacity(scattered.len() * SORT_RANGES);
        for s in &mut scattered {
            let index = &s.index;
            let (mut rest, mut words, mut word) =
                (s.positions.as_mut_slice(), &mut s.run_start[..], 0);
            for buckets in index.sort_ranges() {
                let (lo, hi) = (
                    index.dir[buckets.start] as usize,
                    index.dir[buckets.end] as usize,
                );
                let (slice, tail) = std::mem::take(&mut rest).split_at_mut(hi - lo);
                // The range's own words: those holding only its entries.
                let own = lo.div_ceil(64)..(hi / 64).max(lo.div_ceil(64));
                let (_, after) = std::mem::take(&mut words).split_at_mut(own.start - word);
                let (own_words, after) = after.split_at_mut(own.len());
                (rest, words, word) = (tail, after, own.end);
                tasks.push((index, buckets, slice, own.start, own_words));
            }
        }
        let shared = pool.map_items(tasks, rec, Vec::new, |_, task, keyed| {
            let (index, buckets, slice, first, own) = task;
            // A range's entries outside its own words lie in at most one
            // word before them and one after.
            let mut shared = [(0, 0u64); 2];
            index.sort_buckets(buckets, slice, keyed, |i| {
                let (w, bit) = (i / 64, 1 << (i % 64));
                match w.checked_sub(first) {
                    Some(at) if at < own.len() => own[at] |= bit,
                    Some(_) => shared[1] = (w, shared[1].1 | bit),
                    None => shared[0] = (w, shared[0].1 | bit),
                }
            });
            shared
        });
        scattered
            .into_iter()
            .zip(shared.chunks(SORT_RANGES))
            .map(|(mut s, shared)| {
                for &(w, bits) in shared.iter().flatten() {
                    s.run_start[w] |= bits;
                }
                s.index.finish(s.positions, s.run_start)
            })
            .collect()
    }

    /// The serial half of a build: the reads packed back to back, their
    /// k-mer starts counted per bucket, and the untagged entries scattered
    /// into their buckets, whose order within a bucket is still entry
    /// order. `dir` is final; `positions` and `run_start` are returned
    /// beside the index. `off_bits` is what [`KmerIndex::check_capacity`]
    /// returned for `reads`.
    fn scatter<'a>(
        reads: impl ExactSizeIterator<Item = (ReadId, PackedView<'a>)> + Clone,
        k: usize,
        off_bits: u32,
    ) -> Scattered {
        assert!((1..=32).contains(&k), "k must be in 1..=32");
        let bases: usize = reads.clone().map(|(_, seq)| seq.len()).sum();
        let count = reads.len();
        let mut words = vec![0u64; words_for(bases)];
        let mut read_starts = Vec::with_capacity(count + 1);
        let mut ids = Vec::with_capacity(count);
        let mut at = 0usize;
        let mut kmers = 0usize;
        for (id, seq) in reads {
            read_starts.push(at as u32);
            ids.push(id);
            for off in (0..seq.len()).step_by(BASES_PER_WORD) {
                // Bases past the read's end come back zero, so OR-ing the
                // chunk in leaves the next read's bits untouched.
                let chunk = seq.window(off);
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

        let p = dir_bases(kmers, k);
        let suffix_bits = 2 * (k - p) as u32;
        let tag_width = tag_bits(count, off_bits, suffix_bits);
        let tag_shift = 32 - tag_width;
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
            tag_shift,
            untag: ((1u64 << tag_shift) - 1) as u32,
            tag_is_suffix: tag_width == suffix_bits,
        };
        let buckets = 1usize << (2 * p);
        let bucket = |pos: usize| window(&index.words, pos) as usize & (buckets - 1);
        let mut dir = vec![0u32; buckets + 1];
        index.for_each_kmer_start(k, |_, pos| dir[bucket(pos) + 1] += 1);
        for b in 1..dir.len() {
            dir[b] += dir[b - 1];
        }
        // `dir[b]` is bucket b's start and serves as its write cursor, so
        // after the scatter it is bucket b's end — the next bucket's start.
        // Entries are untagged until the sort writes them back: a tag is a
        // function of the k-mer, so sorting by `(k-mer, entry)` puts them in
        // the same order tagged or not.
        let mut positions = vec![0u32; kmers];
        index.for_each_kmer_start(k, |entry, pos| {
            let cursor = &mut dir[bucket(pos)];
            positions[*cursor as usize] = entry;
            *cursor += 1;
        });
        dir.copy_within(..buckets, 1);
        dir[0] = 0;
        index.dir = dir;
        let run_start = vec![0u64; run_words_for(kmers)];
        Scattered {
            index,
            positions,
            run_start,
        }
    }

    /// The [`SORT_RANGES`] bucket ranges of a scattered index, in bucket
    /// order: range `r` starts at the first bucket whose entries start at or
    /// past `r / SORT_RANGES` of all entries. A range may be empty, and one
    /// bucket is never split.
    fn sort_ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let buckets = self.dir.len() - 1;
        let kmers = u64::from(self.dir[buckets]);
        let bound = move |r: usize| match r {
            r if r == SORT_RANGES => buckets,
            r => self.dir[..buckets].partition_point(|&start| {
                u64::from(start) * (SORT_RANGES as u64) < r as u64 * kmers
            }),
        };
        (0..SORT_RANGES).map(move |r| bound(r)..bound(r + 1))
    }

    /// Sorts `buckets`, whose entries `positions` holds (from the first
    /// bucket's start), each by `(k-mer, entry)`: keyed into `keyed`, a
    /// scratch vector as long as the longest bucket, sorted, written back
    /// tagged. Calls `mark(i)` for every entry `i` (counted over the whole
    /// index) that starts a run of equal k-mers.
    fn sort_buckets(
        &self,
        buckets: Range<usize>,
        positions: &mut [u32],
        keyed: &mut Vec<(u64, u32)>,
        mut mark: impl FnMut(usize),
    ) {
        let base = self.dir[buckets.start] as usize;
        for b in buckets {
            let (lo, hi) = (self.dir[b] as usize - base, self.dir[b + 1] as usize - base);
            keyed.clear();
            keyed.extend(
                positions[lo..hi]
                    .iter()
                    .map(|&entry| (self.kmer_at(entry), entry)),
            );
            keyed.sort_unstable();
            for (i, &(kmer, entry)) in keyed.iter().enumerate() {
                positions[lo + i] = self.tag_floor(kmer) as u32 | entry;
                if i == 0 || keyed[i - 1].0 != kmer {
                    mark(base + lo + i);
                }
            }
        }
    }

    /// Completes a scattered index from its sorted `positions` and their
    /// run-start bits, setting the sentinel bit.
    fn finish(mut self, positions: Vec<u32>, mut run_start: Vec<u64>) -> KmerIndex {
        let kmers = positions.len();
        run_start[kmers / 64] |= 1 << (kmers % 64);
        self.positions = positions;
        self.run_start = run_start;
        self
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
        let entry = entry & self.untag;
        // Shifted as u64: a single read past 2^31 bases has `off_bits == 32`.
        (
            (entry as u64 >> self.off_bits) as usize,
            entry & self.off_mask,
        )
    }

    /// The least entry, widened to `u64`, that carries `kmer`'s tag: the
    /// k-mer's top `32 - tag_shift` bits (its last bases) above `tag_shift`
    /// zero bits. Every shift is of a `u64` by at most 62, so no tag width
    /// from 0 to 32 needs a case.
    #[inline]
    fn tag_floor(&self, kmer: u64) -> u64 {
        (kmer << self.kmer_mask.leading_zeros() >> 32) >> self.tag_shift << self.tag_shift
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

    /// `bucket` from its first entry whose tag is not below `kmer`'s: one
    /// binary search over the bucket's entries, and no text read. The
    /// entries from there that carry `kmer`'s tag are its *block*, a whole
    /// number of runs that starts one, since entries of two tags hold two
    /// k-mers.
    #[inline]
    fn tag_start(&self, kmer: u64, bucket: (u32, u32)) -> (u32, u32) {
        let entries = &self.positions[bucket.0 as usize..bucket.1 as usize];
        let floor = self.tag_floor(kmer);
        let skip = entries.partition_point(|&entry| u64::from(entry) < floor);
        (bucket.0 + skip as u32, bucket.1)
    }

    /// The entries whose k-mer is `kmer` in `from`, a [`KmerIndex::tag_start`]:
    /// one run, or an empty range. The tag of an entry says whether it is
    /// still in the block. A tag that is the whole suffix makes the block
    /// the run, and no text is read. Otherwise only run starts in the block
    /// are compared with the text; a run's other entries were equal to its
    /// first when the bucket was sorted.
    #[inline]
    fn run_from(&self, kmer: u64, from: (u32, u32)) -> (u32, u32) {
        let (mut i, end) = (from.0 as usize, from.1 as usize);
        let ceiling = self.tag_floor(kmer) + (1 << self.tag_shift);
        let in_block = |i: usize| i < end && u64::from(self.positions[i]) < ceiling;
        let mut walk = RUN_WALK_MAX;
        while in_block(i) {
            // A tag that is the whole suffix has already proven the block's
            // first entry to be `kmer`.
            let found = if self.tag_is_suffix {
                kmer
            } else {
                self.kmer_at(self.positions[i])
            };
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
                // Lands on the first k-mer of the block not below the query,
                // or past the block: either way the loop is over at its next
                // turn. The block's end is found from the tags alone.
                let rest = &self.positions[i..end];
                let block = &rest[..rest.partition_point(|&entry| u64::from(entry) < ceiling)];
                i + block.partition_point(|&entry| self.kmer_at(entry) < kmer)
            };
        }
        (0, 0)
    }

    /// Looks up every k-mer of `kmers` (packed as by
    /// [`fc_seq::DnaString::kmer_u64`] for the `k` the index was built with):
    /// `out[i]`, cleared first, is the entry range of `kmers[i]`'s run, for
    /// [`KmerIndex::hits_of`]. Three passes, each over the whole batch: the
    /// directory bounds of every k-mer, then the start of its tag block in
    /// the bucket, then its run inside the block. One read's directory
    /// loads, and then its bucket searches, are in flight together instead
    /// of each waiting behind the previous k-mer's text reads.
    pub fn runs(&self, kmers: &[u64], out: &mut Vec<(u32, u32)>) {
        out.clear();
        out.extend(kmers.iter().map(|&kmer| self.bucket(kmer)));
        for (range, &kmer) in out.iter_mut().zip(kmers) {
            *range = self.tag_start(kmer, *range);
        }
        for (range, &kmer) in out.iter_mut().zip(kmers) {
            *range = self.run_from(kmer, *range);
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
        self.hits_of(self.run_from(kmer, self.tag_start(kmer, self.bucket(kmer))))
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
    use fc_seq::DnaString;

    fn random_seq(rng: &mut Rng, len: usize, alphabet: u8) -> DnaString {
        (0..len)
            .map(|_| fc_seq::Base::from_code(rng.range(0..alphabet)))
            .collect()
    }

    fn with_ids(seqs: &[DnaString]) -> Vec<(ReadId, PackedView<'_>)> {
        // Ids are not positions: the index must report what it was given.
        seqs.iter()
            .enumerate()
            .map(|(i, s)| (ReadId(3 * i as u32 + 1), s.packed()))
            .collect()
    }

    fn parse(seqs: &[&str]) -> Vec<DnaString> {
        seqs.iter().map(|s| s.parse().unwrap()).collect()
    }

    /// The index the tests trust: each read's k-mers, one `get` per base,
    /// and every lookup scans them all.
    struct NaiveIndex(Vec<(ReadId, Vec<u64>)>);

    impl NaiveIndex {
        fn build(reads: &[(ReadId, PackedView<'_>)], k: usize) -> NaiveIndex {
            let kmer_at = |seq: PackedView<'_>, pos: usize| {
                (0..k).fold(0, |kmer, i| kmer | (seq.code(pos + i) as u64) << (2 * i))
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
        assert_eq!(offset_bits(0, 0), Some(0));
        assert_eq!(offset_bits(5, 1), Some(0));
        assert_eq!(offset_bits(1, 64), Some(6));
        assert_eq!(offset_bits(1, 65), Some(7));
        assert_eq!(offset_bits(1 << 19, 8192), Some(13)); // exactly 2^32
        assert_eq!(offset_bits(1, u32::MAX as usize), Some(32));
    }

    #[test]
    fn too_many_reads_for_their_offset_field_are_refused() {
        // 2^20 reads x 13 offset bits = 2^33, though 2^20 x 100 bases plus
        // one 5 000-base read would fit u32 positions.
        let lens = || std::iter::once(5000).chain(std::iter::repeat_n(100, (1 << 20) - 1));
        let refused = AlignError::IndexCapacity {
            reads: 1 << 20,
            longest: 5000,
        };
        assert_eq!(KmerIndex::check_capacity(lens()), Err(refused.clone()));
        assert!(refused
            .to_string()
            .contains("do not fit u32 (read, offset) entries"));
        // One read fewer than the edge fits: 2^19 x 13 bits = 2^32.
        assert_eq!(KmerIndex::check_capacity(lens().take(1 << 19)), Ok(13));
        // Bases past u32 positions are refused by the same check.
        let bases = u32::MAX as usize + 1;
        assert!(KmerIndex::check_capacity([bases / 2, bases / 2]).is_err());
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
                let reads: Vec<(ReadId, PackedView<'_>)> =
                    reference.iter().map(|&id| (id, store.get(id))).collect();
                let index = KmerIndex::build(&reads, config.k);
                let naive = NaiveIndex::build(&reads, config.k);
                for q in store.ids() {
                    kmers.clear();
                    crate::pairwise::sampled_kmers(store.get(q), config.k, &mut kmers);
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

    /// The run of `kmer` found the slow way: every entry of its bucket
    /// compared with the text. Empty is `(0, 0)`.
    fn reference_run(index: &KmerIndex, kmer: u64) -> (u32, u32) {
        let (lo, hi) = index.bucket(kmer);
        let mut at = (lo..hi).filter(|&i| index.kmer_at(index.positions[i as usize]) == kmer);
        match at.next() {
            Some(first) => (first, at.last().unwrap_or(first) + 1),
            None => (0, 0),
        }
    }

    /// The entries of `kmer`'s bucket that carry its tag, from its
    /// [`KmerIndex::tag_start`] on; checks that none before it does.
    fn tag_block(index: &KmerIndex, kmer: u64) -> (usize, usize) {
        let (start, end) = index.tag_start(kmer, index.bucket(kmer));
        let (start, end) = (start as usize, end as usize);
        let tag = |i: usize| u64::from(index.positions[i]) >> index.tag_shift;
        let floor = index.tag_floor(kmer) >> index.tag_shift;
        assert!((index.bucket(kmer).0 as usize..start).all(|i| tag(i) < floor));
        (start, (start..end).find(|&i| tag(i) > floor).unwrap_or(end))
    }

    /// One `runs` batch of `batch` against the naive scan and, range for
    /// range (empty ones included), against [`reference_run`]; returns the
    /// hits seen.
    fn check_runs(index: &KmerIndex, naive: &NaiveIndex, batch: &[u64], what: &str) -> usize {
        let mut out = Vec::new();
        index.runs(batch, &mut out);
        assert_eq!(out.len(), batch.len(), "{what}");
        let mut hits = 0;
        for (&kmer, &range) in batch.iter().zip(&out) {
            assert_eq!(range, reference_run(index, kmer), "{what}, k-mer {kmer:#x}");
            hits += assert_same_hits(index.hits_of(range), naive, kmer, what);
        }
        hits
    }

    #[test]
    fn tag_takes_the_bits_read_and_offset_leave_up_to_the_suffix() {
        // The ruler's subsets: 6 642 reads (13 rank bits) of up to 90 bases
        // (7 offset bits) leave 12 bits, six of the suffix's seven bases at
        // their p = 8, and the whole suffix at p = 9.
        assert_eq!(tag_bits(6642, 7, 12), 12);
        assert_eq!(tag_bits(6642, 7, 14), 12);
        // The capacity edge `reads << off_bits = 2^32` leaves none, and so
        // does one read past 2^31 bases (32 offset bits).
        assert_eq!(tag_bits(1 << 19, 13, 30), 0);
        assert_eq!(tag_bits((1 << 19) - 1, 13, 30), 0);
        assert_eq!(tag_bits((1 << 18) + 1, 13, 30), 0);
        assert_eq!(tag_bits(1 << 18, 13, 30), 1);
        assert_eq!(tag_bits(1, 32, 30), 0);
        // The directory covers the whole k-mer: nothing left to tag.
        assert_eq!(tag_bits(20, 6, 0), 0);
        // No read and no offset bit: the tag may fill all 32 bits.
        assert_eq!(tag_bits(0, 0, 64), 32);
        assert_eq!(tag_bits(1, 0, 40), 32);
    }

    /// 16 reads of 40 bases leave a 22-bit tag: k = 9 and k = 4 (whose
    /// suffixes are 10 and 0 bits) fit it whole, k = 15 and k = 32 (24 and
    /// 58 bits) do not, and k = 1 has no suffix at all. Every k-mer and
    /// random ones, through `hits` and `runs`, against the naive scan.
    #[test]
    fn tagged_lookups_match_the_naive_scan_in_every_tag_regime() {
        let mut rng = Rng::new(57);
        let seqs: Vec<DnaString> = (0..16).map(|_| random_seq(&mut rng, 40, 4)).collect();
        let reads = with_ids(&seqs);
        let mut joined = DnaString::new();
        for seq in &seqs {
            joined.extend_from(seq);
        }
        for (k, width, whole) in [
            (9, 10, true),
            (4, 0, true),
            (1, 0, true),
            (15, 22, false),
            (32, 22, false),
        ] {
            let index = KmerIndex::build(&reads, k);
            let what = format!("k={k}");
            assert_eq!(
                (32 - index.tag_shift, index.tag_is_suffix),
                (width, whole),
                "{what}"
            );
            assert!(check_against_oracle(&seqs, k, &what) > 0);
            let naive = NaiveIndex::build(&reads, k);
            let mut batch: Vec<u64> = joined.kmers(k).map(|(_, kmer)| kmer).collect();
            batch.extend((0..50).map(|_| rng.next_u64() & index.kmer_mask));
            assert!(check_runs(&index, &naive, &batch, &what) > 0);
        }
        // A 32-bit tag and no `(read, offset)` bits: nothing to find, and
        // nothing may shift a `u32` by 32 on the way.
        let short = parse(&["A"]);
        let index = KmerIndex::build(&with_ids(&short), 16);
        assert_eq!((index.tag_shift, index.untag), (0, 0));
        assert_eq!(
            index.hits(0).count() + index.hits(index.kmer_mask).count(),
            0
        );
    }

    /// 48 15-mers that share their first three and last nine bases and
    /// differ in the three between, plus one 200-base read whose offsets
    /// widen every entry: the tag leaves six suffix bits untagged, so the
    /// 48 k-mers are one block of equal tags, more runs than the walk takes
    /// before it binary-searches.
    #[test]
    fn an_equal_tag_block_longer_than_the_run_walk_is_searched() {
        let mut rng = Rng::new(64);
        let (head, tail) = (random_seq(&mut rng, 3, 4), random_seq(&mut rng, 9, 4));
        let middle = |m: u8| -> DnaString {
            (0..3)
                .map(|i| fc_seq::Base::from_code(m >> (2 * i) & 3))
                .collect()
        };
        let mut seqs = vec![random_seq(&mut rng, 200, 4)];
        for m in 0..48 {
            let mut seq = head.clone();
            seq.extend_from(&middle(m));
            seq.extend_from(&tail);
            seqs.push(seq);
        }
        let reads = with_ids(&seqs);
        let index = KmerIndex::build(&reads, 15);
        let naive = NaiveIndex::build(&reads, 15);
        assert_eq!((32 - index.tag_shift, index.tag_is_suffix), (18, false));
        let kmer_of = |m: u8| {
            let mut seq = head.clone();
            seq.extend_from(&middle(m));
            seq.extend_from(&tail);
            seq.kmer_u64(0, 15).unwrap()
        };
        let (lo, hi) = tag_block(&index, kmer_of(0));
        let runs = (lo..hi).filter(|&i| marked(&index, i)).count();
        assert!(runs > RUN_WALK_MAX, "{runs} runs in the block");
        // The 48 present middles and the 16 absent ones, each alone and all
        // in one batch.
        let batch: Vec<u64> = (0..64).map(kmer_of).collect();
        for (m, &kmer) in batch.iter().enumerate() {
            assert_eq!(tag_block(&index, kmer), (lo, hi));
            let hits = assert_same_hits(index.hits(kmer), &naive, kmer, "block");
            assert_eq!(hits, usize::from(m < 48), "middle {m}");
        }
        assert_eq!(check_runs(&index, &naive, &batch, "block batch"), 48);
        check_against_oracle(&seqs, 15, "equal-tag block");
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

    /// `build_all` on the pool builds what `build` does — directory, tagged
    /// positions, run-start bits and text — at 1, 2 and 3 threads, on three
    /// shapes of subset: fewer buckets than sort ranges, one bucket holding
    /// most entries (poly-A reads), and random reads whose ranges start
    /// inside bitmap words.
    #[test]
    fn pooled_build_equals_the_serial_build() {
        let mut rng = Rng::new(53);
        let few = vec![random_seq(&mut rng, 30, 4)];
        let mut poly_a: Vec<DnaString> = (0..60).map(|_| random_seq(&mut rng, 120, 1)).collect();
        poly_a.extend((0..6).map(|_| random_seq(&mut rng, 120, 4)));
        let random: Vec<DnaString> = (0..400)
            .map(|_| {
                let len = rng.range(20..160);
                random_seq(&mut rng, len, 4)
            })
            .collect();
        for (name, seqs) in [("few", few), ("poly-A", poly_a), ("random", random)] {
            for k in [9, 15] {
                let reads = with_ids(&seqs);
                let serial = KmerIndex::build(&reads, k);
                let buckets = serial.dir.len() - 1;
                let largest = serial.dir.windows(2).map(|w| w[1] - w[0]).max();
                match name {
                    "few" => assert!(buckets < SORT_RANGES, "k={k}: {buckets} buckets"),
                    "poly-A" => assert!(largest > Some(serial.dir[buckets] / 2), "k={k}"),
                    _ => assert!(serial.sort_ranges().any(|r| serial.dir[r.start] % 64 != 0)),
                }
                let subsets = [reads.clone(), reads[..reads.len() / 2].to_vec(), reads];
                let each: Vec<KmerIndex> = subsets.iter().map(|r| KmerIndex::build(r, k)).collect();
                let off_bits: Vec<u32> = subsets
                    .iter()
                    .map(|r| KmerIndex::check_capacity(r.iter().map(|(_, s)| s.len())).unwrap())
                    .collect();
                for threads in [1, 2, 3] {
                    let rec = Recorder::new(fc_obs::ObsOptions::logical());
                    let pool = Pool::new(threads);
                    let reads = |j: usize| subsets[j].iter().copied();
                    let pooled = KmerIndex::build_all(reads, &off_bits, k, &pool, &rec);
                    let what = format!("{name}, k={k}, {threads} threads");
                    assert_eq!(pooled.len(), each.len(), "{what}");
                    for (got, want) in pooled.iter().zip(&each) {
                        assert_eq!(got.dir, want.dir, "{what}: directory");
                        assert_eq!(got.positions, want.positions, "{what}: positions");
                        assert_eq!(got.run_start, want.run_start, "{what}: run starts");
                        assert_eq!(got.words, want.words, "{what}: text");
                        assert_eq!(got.heap_bytes(), want.heap_bytes(), "{what}: heap");
                    }
                    let tasks = rec.snapshot().counters.get("exec.tasks").copied();
                    assert_eq!(tasks, Some(3 * (1 + SORT_RANGES) as u64), "{what}");
                }
            }
        }
    }
}
