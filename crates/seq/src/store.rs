//! The read store: preprocessing output and the substrate the overlap graph
//! is built over (paper §II-A).

use crate::dna::DnaString;
use crate::error::SeqError;
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
#[derive(Debug, Clone, Default)]
pub struct ReadStore {
    reads: Vec<DnaString>,
    /// `true` when the store is forward/RC interleaved (built by `preprocess`
    /// or `from_trimmed`).
    rc_paired: bool,
    /// Index of the source read (pre-trimming) each stored read came from.
    source: Vec<u32>,
}

/// What the ledger charges for one stored sequence of `len` bases: the
/// `DnaString` header, its packed words and its source index. It is the
/// store's heap exactly when the vectors are tight, which
/// [`ReadStoreBuilder::finish`] makes them.
fn stored_bytes(len: usize) -> usize {
    std::mem::size_of::<DnaString>() + len.div_ceil(32) * 8 + std::mem::size_of::<u32>()
}

impl ReadStore {
    /// Wraps the reads' bases as-is, without reverse complements.
    pub fn from_reads(reads: Vec<Read>) -> ReadStore {
        let source = (0..reads.len() as u32).collect();
        ReadStore {
            reads: reads.into_iter().map(|r| r.seq).collect(),
            rc_paired: false,
            source,
        }
    }

    /// Runs the §II-A preprocessing pipeline: trim every read with `config`,
    /// drop reads shorter than `config.min_read_len`, then append the reverse
    /// complement of each survivor directly after it.
    pub fn preprocess(input: &[Read], config: &TrimConfig) -> Result<ReadStore, SeqError> {
        let mut builder = ReadStoreBuilder::new(config)?;
        for read in input {
            builder.push(read);
        }
        Ok(builder.finish())
    }

    /// Rebuilds an RC-paired store from already-trimmed forward strands and
    /// their source indices (e.g. staged pages); the reverse complements are
    /// regenerated, which is what `preprocess` would have produced.
    pub(crate) fn from_trimmed(pairs: Vec<(DnaString, u32)>) -> ReadStore {
        let mut reads = Vec::with_capacity(2 * pairs.len());
        let mut source = Vec::with_capacity(2 * pairs.len());
        for (fwd, src) in pairs {
            let rc = fwd.reverse_complement();
            reads.extend([fwd, rc]);
            source.extend([src, src]);
        }
        ReadStore {
            reads,
            rc_paired: true,
            source,
        }
    }

    /// Number of stored reads (forward + reverse complements).
    pub fn len(&self) -> usize {
        self.reads.len()
    }

    /// True if the store holds no reads.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty()
    }

    /// The bases of the read with id `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    pub fn get(&self, id: ReadId) -> &DnaString {
        &self.reads[id.index()]
    }

    /// All stored reads in id order.
    pub fn reads(&self) -> &[DnaString] {
        &self.reads
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
        self.source[id.index()] as usize
    }

    /// Total number of stored bases.
    pub fn total_bases(&self) -> usize {
        self.reads.iter().map(DnaString::len).sum()
    }

    /// Heap footprint of the store in bytes (sequences plus the
    /// source-index column), for memory-budget accounting: each stored
    /// sequence is charged its header, its packed words and its source
    /// index, which covers the heap of a store built by
    /// [`ReadStore::preprocess`].
    pub fn approx_bytes(&self) -> usize {
        self.reads.iter().map(|s| stored_bytes(s.len())).sum()
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
            store: ReadStore {
                rc_paired: true,
                ..ReadStore::default()
            },
            next_source: 0,
        })
    }

    /// Trims one borrowed record, packing only the bases it keeps, and, if
    /// they survive the length filter, appends them and their reverse
    /// complement to the store under construction.
    ///
    /// Returns the bytes the store grew by (what
    /// [`ReadStore::approx_bytes`] charges for both strands; 0 when the
    /// record was dropped) so a memory-budget ledger can be charged
    /// incrementally during streaming ingest.
    pub fn push_record(&mut self, record: &Record<'_>) -> Result<usize, SeqError> {
        let kept = keep_range(record.bases.len(), record.qual, &self.config);
        let mut trimmed = DnaString::with_capacity(kept.len());
        trimmed.extend_from_ascii(&record.bases[kept])?;
        Ok(self.keep(trimmed))
    }

    /// [`push_record`](ReadStoreBuilder::push_record) for a read already
    /// held in memory.
    pub fn push(&mut self, read: &Read) -> usize {
        let qual = read.qual.as_ref().map(QualityScores::as_slice);
        let kept = keep_range(read.len(), qual, &self.config);
        self.keep(read.seq.slice(kept.start, kept.end))
    }

    fn keep(&mut self, trimmed: DnaString) -> usize {
        let i = self.next_source;
        self.next_source += 1;
        if trimmed.len() < self.config.min_read_len.max(1) {
            return 0;
        }
        let grown = 2 * stored_bytes(trimmed.len());
        let rc = trimmed.reverse_complement();
        self.store.reads.extend([trimmed, rc]);
        self.store.source.extend([i, i]);
        grown
    }

    /// The forward strand and source index of the most recently kept read
    /// — what a streaming ingest stages to disk right after a
    /// [`push_record`](ReadStoreBuilder::push_record) that returned
    /// non-zero.
    pub fn last_kept(&self) -> Option<(&DnaString, u32)> {
        let n = self.store.len();
        (n >= 2).then(|| (&self.store.reads[n - 2], self.store.source[n - 2]))
    }

    /// Finishes the RC-paired store, its vectors trimmed to their length so
    /// the heap is what [`ReadStore::approx_bytes`] charges.
    pub fn finish(mut self) -> ReadStore {
        self.store.reads.shrink_to_fit();
        self.store.source.shrink_to_fit();
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
            store.get(ReadId(1)),
            &store.get(ReadId(0)).reverse_complement()
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
        assert_eq!(store.get(ReadId(0)).to_string(), "AACG");
        assert_eq!(store.get(ReadId(1)).to_string(), "CGTT");
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
        assert_eq!(streamed.reads(), batch.reads());
        for id in batch.ids() {
            assert_eq!(streamed.source_index(id), batch.source_index(id));
        }
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
        assert_eq!(streamed.reads(), batch.reads());
        assert_eq!(streamed.source, batch.source);
    }

    #[test]
    fn from_trimmed_regenerates_reverse_complements() {
        let batch = ReadStore::preprocess(&input_reads(), &config()).unwrap();
        let pairs: Vec<(DnaString, u32)> = (0..batch.len())
            .step_by(2)
            .map(|i| {
                let id = ReadId(i as u32);
                (batch.get(id).clone(), batch.source_index(id) as u32)
            })
            .collect();
        let rebuilt = ReadStore::from_trimmed(pairs);
        assert_eq!(rebuilt.reads(), batch.reads());
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
                assert_eq!(store.get(rc), &store.get(fwd).reverse_complement());
                let src = store.source_index(fwd);
                assert_eq!(store.source_index(rc), src);
                assert!(src >= last_source);
                last_source = src;
            }
        });
    }

    /// What the ledger charges covers the store's heap — the vectors'
    /// capacity and every sequence's words — and stays within 1.25× of it,
    /// for a store preprocessed or rebuilt from staged strands.
    #[test]
    fn approx_bytes_covers_the_heap_and_stays_close() {
        let heap = |s: &ReadStore| {
            s.reads.capacity() * std::mem::size_of::<DnaString>()
                + s.reads.iter().map(DnaString::heap_bytes).sum::<usize>()
                + s.source.capacity() * std::mem::size_of::<u32>()
        };
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
            let staged = forward.map(|id| (store.get(id).clone(), id.0)).collect();
            for s in [&store, &ReadStore::from_trimmed(staged)] {
                let (heap, charged) = (heap(s), s.approx_bytes());
                assert!(charged >= heap, "{charged} < {heap}");
                assert!(charged * 4 <= heap * 5, "{charged} > 1.25 x {heap}");
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
