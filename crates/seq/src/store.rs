//! The read store: preprocessing output and the substrate the overlap graph
//! is built over (paper §II-A).
//!
//! The store is one packed arena: a single `Vec<u64>` holds every stored
//! read's bases at two bits each (the [`crate::packed`] layout), each read
//! starting on a word boundary, beside one 12-byte entry per read — its
//! first word, its length and the input read it came from. A read costs
//! its words plus that entry, with no per-read allocation, and every stage
//! reads its bases as a borrowed [`PackedView`] through [`ReadStore::get`].
//! The writers ([`ReadStoreBuilder`], [`ReadStore::preprocess`] and the
//! paged store's rebuild) pack the trimmed bases straight into the arena
//! and append their reverse complement from those words.

use crate::dna::{ascii_word, DnaString};
use crate::error::SeqError;
use crate::packed::{PackedView, BASES_PER_WORD};
use crate::quality::QualityScores;
use crate::read::{Read, ReadId, Record};
use crate::trim::{keep_range, TrimConfig};

/// Strand of a stored read relative to its source read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Orientation {
    /// The read as sequenced.
    Forward,
    /// The generated reverse complement (paper §II-A adds one per read).
    ReverseComplement,
}

/// A container of preprocessed reads: their bases and the source read each
/// came from. Names and qualities end at trimming — no later stage reads
/// them — so a stored read is its packed bases alone.
///
/// After [`ReadStore::preprocess`], the store holds each surviving input read
/// immediately followed by its reverse complement, so forward reads occupy
/// even indices and their reverse complements the following odd index. Read
/// ids are dense and become overlap-graph node ids downstream.
///
/// The arena addresses words and bases with `u32`s: every constructor and
/// push panics rather than store a read of 2³² bases or more, or grow the
/// arena past 2³² words (128 Gbases).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadStore {
    /// Every stored read's bases, 32 to a word, each read from a word
    /// boundary; padding bits are zero.
    words: Vec<u64>,
    /// One entry per stored read, in id order.
    reads: Vec<Stored>,
    /// `true` when the store is forward/RC interleaved (built by `preprocess`
    /// or `from_trimmed`).
    rc_paired: bool,
}

/// Where a stored read's bases lie in the arena, and the index of the
/// source read (pre-trimming) it came from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Stored {
    start: u32,
    len: u32,
    source: u32,
}

/// What the ledger charges for one stored sequence of `len` bases: its
/// packed words and its entry. It is the store's heap exactly when the
/// vectors are tight, which every constructor makes them.
fn stored_bytes(len: usize) -> usize {
    len.div_ceil(BASES_PER_WORD) * 8 + std::mem::size_of::<Stored>()
}

impl ReadStore {
    /// Wraps the reads' bases as-is, without reverse complements.
    pub fn from_reads(reads: Vec<Read>) -> ReadStore {
        let strands = reads.iter().zip(0..).map(|(r, i)| (r.seq.packed(), i));
        ReadStore::from_strands(false, strands)
    }

    /// Runs the §II-A preprocessing pipeline: trim every read with `config`,
    /// drop reads shorter than `config.min_read_len`, then append the reverse
    /// complement of each survivor directly after it. The arena is reserved
    /// for the untrimmed input and trimmed to what was kept.
    pub fn preprocess(input: &[Read], config: &TrimConfig) -> Result<ReadStore, SeqError> {
        let mut builder = ReadStoreBuilder::new(config)?;
        let words: usize = input.iter().map(|r| r.len().div_ceil(BASES_PER_WORD)).sum();
        builder.store = ReadStore::with_capacity(true, 2 * input.len(), 2 * words);
        for read in input {
            builder.push(read);
        }
        Ok(builder.finish())
    }

    /// Rebuilds an RC-paired store from already-trimmed forward strands and
    /// their source indices (e.g. staged pages); the reverse complements are
    /// regenerated, which is what `preprocess` would have produced.
    pub(crate) fn from_trimmed(pairs: &[(DnaString, u32)]) -> ReadStore {
        ReadStore::from_strands(true, pairs.iter().map(|(s, i)| (s.packed(), *i)))
    }

    /// A store of `strands` (bases and source index) as given, each
    /// followed by its reverse complement when `rc_paired`, its vectors
    /// sized exactly.
    fn from_strands<'a>(
        rc_paired: bool,
        strands: impl Iterator<Item = (PackedView<'a>, u32)> + Clone,
    ) -> ReadStore {
        let copies = 1 + usize::from(rc_paired);
        let (reads, words) = strands
            .clone()
            .fold((0, 0), |(r, w), (s, _)| (r + 1, w + s.words().len()));
        let mut store = ReadStore::with_capacity(rc_paired, copies * reads, copies * words);
        for (seq, source) in strands {
            let start = store.words.len();
            store.words.extend_from_slice(seq.words());
            store.seal(start, seq.len(), source);
        }
        store
    }

    /// An empty store with room for `reads` entries and `words` words.
    fn with_capacity(rc_paired: bool, reads: usize, words: usize) -> ReadStore {
        ReadStore {
            words: Vec::with_capacity(words),
            reads: Vec::with_capacity(reads),
            rc_paired,
        }
    }

    /// Records the words appended since word `start` as a read of `len`
    /// bases from input read `source` and, in an RC-paired store, appends
    /// its reverse complement after it. Returns the bytes this grew
    /// [`ReadStore::approx_bytes`] by.
    ///
    /// # Panics
    /// Panics if the read has 2³² bases or more, or the arena would pass
    /// 2³² words (128 Gbases).
    fn seal(&mut self, start: usize, len: usize, source: u32) -> usize {
        let n = len.div_ceil(BASES_PER_WORD);
        debug_assert_eq!(self.words.len(), start + n);
        let end = if self.rc_paired {
            start + 2 * n
        } else {
            start + n
        };
        assert!(
            len <= u32::MAX as usize && end <= u32::MAX as usize,
            "the read store holds reads under 2^32 bases in at most 2^32 words"
        );
        let entry = Stored {
            start: start as u32,
            len: len as u32,
            source,
        };
        self.reads.push(entry);
        if !self.rc_paired {
            return stored_bytes(len);
        }
        self.words.resize(end, 0);
        let (fwd, rc) = self.words[start..].split_at_mut(n);
        let words = PackedView::new(fwd, len).reverse_complement_words();
        for (slot, word) in rc.iter_mut().zip(words) {
            *slot = word;
        }
        self.reads.push(Stored {
            start: (start + n) as u32,
            ..entry
        });
        2 * stored_bytes(len)
    }

    /// Number of stored reads (forward + reverse complements).
    pub fn len(&self) -> usize {
        self.reads.len()
    }

    /// True if the store holds no reads.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty()
    }

    /// The bases of the read with id `id`, borrowed from the arena. This is
    /// the one way to read them; `DnaString::from` makes an owned copy.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    #[inline]
    pub fn get(&self, id: ReadId) -> PackedView<'_> {
        let Stored { start, len, .. } = self.reads[id.index()];
        let (start, len) = (start as usize, len as usize);
        PackedView::new(
            &self.words[start..start + len.div_ceil(BASES_PER_WORD)],
            len,
        )
    }

    /// All read ids.
    pub fn ids(&self) -> impl Iterator<Item = ReadId> + 'static {
        (0..self.reads.len() as u32).map(ReadId)
    }

    /// Orientation of a stored read. Meaningful only for RC-paired stores;
    /// plain stores report everything as forward.
    pub fn orientation(&self, id: ReadId) -> Orientation {
        if self.rc_paired && id.0 % 2 == 1 {
            Orientation::ReverseComplement
        } else {
            Orientation::Forward
        }
    }

    /// For an RC-paired store, the id of the other strand of the same source
    /// read; `None` for plain stores.
    pub fn mate(&self, id: ReadId) -> Option<ReadId> {
        if self.rc_paired {
            Some(ReadId(id.0 ^ 1))
        } else {
            None
        }
    }

    /// Index of the original input read a stored read was derived from.
    pub fn source_index(&self, id: ReadId) -> usize {
        self.reads[id.index()].source as usize
    }

    /// Total number of stored bases.
    pub fn total_bases(&self) -> usize {
        self.reads.iter().map(|r| r.len as usize).sum()
    }

    /// Heap footprint of the store in bytes, for memory-budget accounting:
    /// the arena's words plus one entry per read. Every constructor leaves
    /// the vectors tight, so this is [`ReadStore::heap_bytes`] exactly.
    pub fn approx_bytes(&self) -> usize {
        self.words.len() * 8 + self.reads.len() * std::mem::size_of::<Stored>()
    }

    /// Bytes the store holds on the heap: both vectors' capacity.
    /// [`approx_bytes`](ReadStore::approx_bytes) is the ledger's model of
    /// this.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * 8 + self.reads.capacity() * std::mem::size_of::<Stored>()
    }

    /// Splits the id space into `n` contiguous subsets of near-equal size for
    /// the parallel aligner (paper §II-A/B). Subset sizes differ by at most
    /// one; empty subsets are produced only when `n > len`.
    pub fn split_subsets(&self, n: usize) -> Vec<Vec<ReadId>> {
        assert!(n > 0, "subset count must be positive");
        let len = self.reads.len();
        let base = len / n;
        let extra = len % n;
        let mut out = Vec::with_capacity(n);
        let mut next = 0u32;
        for s in 0..n {
            let size = base + usize::from(s < extra);
            out.push((next..next + size as u32).map(ReadId).collect());
            next += size as u32;
        }
        out
    }
}

/// Incremental construction of an RC-paired [`ReadStore`], one input read
/// at a time.
///
/// [`ReadStore::preprocess`] is this builder driven over a slice. The
/// builder exists so a streaming ingest (reader → store) can apply the
/// exact trim/filter/reverse-complement pipeline without ever holding the
/// raw input in memory: feed each borrowed record to [`push_record`]. The
/// resulting store is byte-identical to preprocessing the collected input
/// — source indices count every pushed read, kept or not, exactly like
/// `preprocess`'s enumeration does.
///
/// [`push_record`]: ReadStoreBuilder::push_record
#[derive(Debug)]
pub struct ReadStoreBuilder {
    config: TrimConfig,
    store: ReadStore,
    next_source: u32,
}

impl ReadStoreBuilder {
    /// Starts a builder with a validated trim configuration.
    pub fn new(config: &TrimConfig) -> Result<ReadStoreBuilder, SeqError> {
        config.validate()?;
        Ok(ReadStoreBuilder {
            config: *config,
            store: ReadStore::with_capacity(true, 0, 0),
            next_source: 0,
        })
    }

    /// Trims one borrowed record, packing only the bases it keeps straight
    /// into the arena, and, if they survive the length filter, appends
    /// their reverse complement after them.
    ///
    /// Returns the bytes the store grew by (what
    /// [`ReadStore::approx_bytes`] charges for both strands; 0 when the
    /// record was dropped) so a memory-budget ledger can be charged
    /// incrementally during streaming ingest. A byte of the kept range
    /// that is not a base is an [`SeqError::InvalidBase`] at its offset in
    /// that range, and the store is left as it was.
    pub fn push_record(&mut self, record: &Record<'_>) -> Result<usize, SeqError> {
        let kept = keep_range(record.bases.len(), record.qual, &self.config);
        let start = self.store.words.len();
        for (c, chunk) in record.bases[kept.clone()]
            .chunks(BASES_PER_WORD)
            .enumerate()
        {
            match ascii_word(chunk, c * BASES_PER_WORD) {
                Ok(word) => self.store.words.push(word),
                Err(e) => {
                    self.store.words.truncate(start);
                    return Err(e);
                }
            }
        }
        Ok(self.keep(start, kept.len()))
    }

    /// [`push_record`](ReadStoreBuilder::push_record) for a read already
    /// held in memory.
    pub fn push(&mut self, read: &Read) -> usize {
        let qual = read.qual.as_ref().map(QualityScores::as_slice);
        let kept = keep_range(read.len(), qual, &self.config);
        let start = self.store.words.len();
        let words = read.seq.packed().range_words(kept.start, kept.end);
        self.store.words.extend(words);
        self.keep(start, kept.len())
    }

    /// Seals the `len` bases just packed from word `start` as the next
    /// source read, or drops them if the length filter refuses them.
    fn keep(&mut self, start: usize, len: usize) -> usize {
        let i = self.next_source;
        self.next_source += 1;
        if len < self.config.min_read_len.max(1) {
            self.store.words.truncate(start);
            return 0;
        }
        self.store.seal(start, len, i)
    }

    /// Finishes the RC-paired store, its vectors trimmed to their length so
    /// the heap is what [`ReadStore::approx_bytes`] charges.
    pub fn finish(mut self) -> ReadStore {
        self.store.words.shrink_to_fit();
        self.store.reads.shrink_to_fit();
        self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input_reads() -> Vec<Read> {
        let mk = |name: &str, seq: &str, q: u8| {
            let seq: crate::DnaString = seq.parse().unwrap();
            let qual = QualityScores::from_phred(vec![q; seq.len()]);
            Read::with_quality(name, seq, qual)
        };
        vec![
            mk("good1", "ACGTACGTAC", 35),
            mk("bad", "ACGTACGTAC", 2),
            mk("good2", "TTTTACGTAC", 35),
        ]
    }

    fn config() -> TrimConfig {
        TrimConfig {
            window_len: 4,
            step: 1,
            min_quality: 20.0,
            min_read_len: 5,
            ..TrimConfig::default()
        }
    }

    #[test]
    fn preprocess_drops_bad_and_pairs_rc() {
        let store = ReadStore::preprocess(&input_reads(), &config()).unwrap();
        assert_eq!(store.len(), 4);
        assert_eq!(store.source_index(ReadId(3)), 2);
        assert_eq!(store.orientation(ReadId(0)), Orientation::Forward);
        assert_eq!(store.orientation(ReadId(1)), Orientation::ReverseComplement);
        assert_eq!(store.mate(ReadId(0)), Some(ReadId(1)));
        assert_eq!(store.mate(ReadId(3)), Some(ReadId(2)));
        assert_eq!(
            DnaString::from(store.get(ReadId(1))),
            DnaString::from(store.get(ReadId(0))).reverse_complement()
        );
        // Source tracking skips the dropped read.
        assert_eq!(store.source_index(ReadId(2)), 2);
    }

    #[test]
    fn the_mate_is_the_reverse_complement_of_the_trimmed_bases() {
        let read = Read::with_quality(
            "r1",
            "AACGA".parse().unwrap(),
            QualityScores::from_phred(vec![40, 40, 40, 40, 2]),
        );
        let config = TrimConfig {
            window_len: 1,
            min_read_len: 1,
            ..TrimConfig::default()
        };
        let store = ReadStore::preprocess(&[read], &config).unwrap();
        assert_eq!(DnaString::from(store.get(ReadId(0))).to_string(), "AACG");
        assert_eq!(DnaString::from(store.get(ReadId(1))).to_string(), "CGTT");
    }

    #[test]
    fn builder_matches_batch_preprocess() {
        let input = input_reads();
        let batch = ReadStore::preprocess(&input, &config()).unwrap();
        let mut builder = ReadStoreBuilder::new(&config()).unwrap();
        let mut grown = 0usize;
        for read in &input {
            grown += builder.push(read);
        }
        let streamed = builder.finish();
        assert_eq!(grown, streamed.approx_bytes());
        assert_eq!(streamed, batch);
    }

    /// Borrowed records build the store that their owned reads do.
    #[test]
    fn records_build_the_store_reads_do() {
        let input = input_reads();
        let mut builder = ReadStoreBuilder::new(&config()).unwrap();
        for read in &input {
            let ascii = read.seq.to_ascii();
            let record = Record {
                name: &read.name,
                bases: &ascii,
                qual: read.qual.as_ref().map(QualityScores::as_slice),
            };
            builder.push_record(&record).unwrap();
        }
        let streamed = builder.finish();
        let batch = ReadStore::preprocess(&input, &config()).unwrap();
        assert_eq!(streamed, batch);
    }

    #[test]
    fn from_trimmed_regenerates_reverse_complements() {
        let batch = ReadStore::preprocess(&input_reads(), &config()).unwrap();
        let pairs: Vec<(DnaString, u32)> = (0..batch.len())
            .step_by(2)
            .map(|i| {
                let id = ReadId(i as u32);
                (
                    DnaString::from(batch.get(id)),
                    batch.source_index(id) as u32,
                )
            })
            .collect();
        let rebuilt = ReadStore::from_trimmed(&pairs);
        assert_eq!(rebuilt, batch);
    }

    #[test]
    fn plain_store_has_no_mates() {
        let store = ReadStore::from_reads(input_reads());
        assert_eq!(store.mate(ReadId(0)), None);
        assert_eq!(store.orientation(ReadId(1)), Orientation::Forward);
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn split_subsets_cover_all_ids_disjointly() {
        let store = ReadStore::preprocess(&input_reads(), &config()).unwrap();
        for n in 1..=6 {
            let subsets = store.split_subsets(n);
            assert_eq!(subsets.len(), n);
            let mut all: Vec<u32> = subsets.iter().flatten().map(|id| id.0).collect();
            all.sort_unstable();
            assert_eq!(all, (0..store.len() as u32).collect::<Vec<_>>(), "n={n}");
            let sizes: Vec<usize> = subsets.iter().map(Vec::len).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "n={n} sizes={sizes:?}");
        }
    }

    #[test]
    fn total_bases_sums_reads() {
        let store = ReadStore::from_reads(input_reads());
        assert_eq!(store.total_bases(), 30);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use fc_rng::{cases, Rng};

    fn arb_reads(rng: &mut Rng) -> Vec<Read> {
        let reads = rng.vec(0..12, |r| {
            r.vec(1..80, |r| (r.range(0u8..4), r.range(10u8..40)))
        });
        reads
            .into_iter()
            .enumerate()
            .map(|(i, pairs)| {
                let seq: crate::DnaString = pairs
                    .iter()
                    .map(|&(b, _)| crate::Base::from_code(b))
                    .collect();
                let quals = QualityScores::from_phred(pairs.iter().map(|&(_, q)| q).collect());
                Read::with_quality(format!("r{i}"), seq, quals)
            })
            .collect()
    }

    /// Preprocessing invariants: even/odd strand pairing, RC mates are
    /// exact reverse complements, sources are monotone.
    #[test]
    fn preprocess_invariants() {
        cases(256, |rng| {
            let reads = arb_reads(rng);
            let config = TrimConfig {
                min_read_len: 1,
                ..TrimConfig::default()
            };
            let store = ReadStore::preprocess(&reads, &config).unwrap();
            assert_eq!(store.len() % 2, 0);
            let mut last_source = 0usize;
            for i in (0..store.len()).step_by(2) {
                let fwd = ReadId(i as u32);
                let rc = ReadId(i as u32 + 1);
                assert_eq!(store.mate(fwd), Some(rc));
                let fwd_bases = DnaString::from(store.get(fwd));
                assert_eq!(
                    DnaString::from(store.get(rc)),
                    fwd_bases.reverse_complement()
                );
                let src = store.source_index(fwd);
                assert_eq!(store.source_index(rc), src);
                assert!(src >= last_source);
                last_source = src;
            }
        });
    }

    /// A random read of `len` bases whose qualities make the trim keep it
    /// whole, cut a low-quality 3' tail of up to 20 bases, or (reads
    /// shorter than 200 bases only) drop it.
    fn trimmable_read(rng: &mut Rng, len: usize) -> Read {
        let seq: DnaString = (0..len)
            .map(|_| crate::Base::from_code(rng.range(0u8..4)))
            .collect();
        let tail = match rng.range(0..3) {
            2 if len < 200 => len,
            1 => rng.range(0..=20.min(len)),
            _ => 0,
        };
        let quals = (0..len).map(|i| if i + tail < len { 35 } else { 2 });
        Read::with_quality("r", seq, QualityScores::from_phred(quals.collect()))
    }

    /// The arena against the per-read packing it replaced. Reads of 1, 31,
    /// 32, 33 and 64 bases, one past 65 535, random ones and ones the trim
    /// drops go through `preprocess`, the streaming builder's records and
    /// `from_trimmed`; every stored read has the length and bases of a
    /// `DnaString` packed base by base from the kept bases, or of their
    /// reverse complement. The charge is the heap, and the growths the
    /// builder reports add up to it.
    #[test]
    fn arena_matches_per_read_packing() {
        cases(8, |rng| {
            let config = TrimConfig {
                trim_5prime: [0, 1, 5, 33][rng.range(0..4)],
                min_read_len: [1, 32][rng.range(0..2)],
                ..TrimConfig::default()
            };
            let mut lens = vec![1, 31, 32, 33, 64, 65_536 + rng.range(0..70)];
            lens.extend((0..rng.range(0..8)).map(|_| rng.range(1..200)));
            rng.shuffle(&mut lens);
            let input: Vec<Read> = lens.iter().map(|&len| trimmable_read(rng, len)).collect();

            // The per-read packing: each kept range as its own DnaString.
            let mut expect = Vec::new();
            for (i, read) in input.iter().enumerate() {
                let qual = read.qual.as_ref().map(QualityScores::as_slice);
                let kept = keep_range(read.len(), qual, &config);
                if kept.len() >= config.min_read_len.max(1) {
                    let fwd: DnaString = kept.clone().map(|p| read.seq.get(p)).collect();
                    let rc = kept.rev().map(|p| read.seq.get(p).complement()).collect();
                    expect.push((fwd, rc, i));
                }
            }

            let batch = ReadStore::preprocess(&input, &config).unwrap();
            let mut builder = ReadStoreBuilder::new(&config).unwrap();
            let mut grown = 0;
            for read in &input {
                let ascii = read.seq.to_ascii();
                let qual = read.qual.as_ref().map(QualityScores::as_slice);
                let record = Record {
                    name: &read.name,
                    bases: &ascii,
                    qual,
                };
                grown += builder.push_record(&record).unwrap();
            }
            let streamed = builder.finish();
            let staged: Vec<(DnaString, u32)> = expect
                .iter()
                .map(|(fwd, _, i)| (fwd.clone(), *i as u32))
                .collect();
            let rebuilt = ReadStore::from_trimmed(&staged);

            assert_eq!(grown, streamed.approx_bytes());
            for store in [&batch, &streamed, &rebuilt] {
                assert_eq!(store.len(), 2 * expect.len());
                for (pair, (fwd, rc, source)) in expect.iter().enumerate() {
                    for (id, bases) in [(2 * pair, fwd), (2 * pair + 1, rc)] {
                        let id = ReadId(id as u32);
                        assert_eq!(store.get(id).len(), bases.len(), "{id:?}");
                        assert_eq!(store.get(id), bases.packed(), "{id:?}");
                        assert_eq!(store.source_index(id), *source);
                    }
                }
                assert_eq!(store.approx_bytes(), store.heap_bytes());
            }
        });
    }

    /// What the ledger charges is the store's heap, for a store
    /// preprocessed, rebuilt from staged strands or wrapped plain.
    #[test]
    fn approx_bytes_is_the_heap() {
        let config = TrimConfig {
            min_read_len: 1,
            ..TrimConfig::default()
        };
        cases(32, |rng| {
            let input: Vec<Read> = (0..rng.range(0..3000))
                .map(|_| {
                    let len = rng.range(1..160);
                    let seq = (0..len).map(|_| crate::Base::from_code(rng.range(0u8..4)));
                    let seq = seq.collect();
                    let quals = (0..len).map(|_| rng.range(2u8..41)).collect();
                    Read::with_quality("r", seq, QualityScores::from_phred(quals))
                })
                .collect();
            let store = ReadStore::preprocess(&input, &config).unwrap();
            let forward = store.ids().step_by(2);
            let staged: Vec<_> = forward
                .map(|id| (DnaString::from(store.get(id)), id.0))
                .collect();
            let plain = ReadStore::from_reads(input);
            for s in [&store, &ReadStore::from_trimmed(&staged), &plain] {
                assert_eq!(s.approx_bytes(), s.heap_bytes());
            }
        });
    }

    /// Subset splitting is a disjoint near-even cover for any n.
    #[test]
    fn subsets_cover() {
        cases(256, |rng| {
            let (reads, n) = (arb_reads(rng), rng.range(1..9));
            let store = ReadStore::from_reads(reads);
            let subsets = store.split_subsets(n);
            let mut all: Vec<u32> = subsets.iter().flatten().map(|id| id.0).collect();
            all.sort_unstable();
            let expect: Vec<u32> = (0..store.len() as u32).collect();
            assert_eq!(all, expect);
            let sizes: Vec<usize> = subsets.iter().map(Vec::len).collect();
            assert!(sizes.iter().max().unwrap_or(&0) - sizes.iter().min().unwrap_or(&0) <= 1);
        });
    }
}
