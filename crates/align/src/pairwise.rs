//! The subset-pair overlapper (paper §II-B).
//!
//! Each reference read subset is indexed by a [`KmerIndex`]; every query read
//! is decomposed into k-mers that are looked up in the index. Reference reads
//! collecting enough k-mer hits on a consistent diagonal become candidates
//! and are verified with banded Needleman–Wunsch. Overlaps that meet the
//! minimum length and identity thresholds are recorded.

use crate::error::AlignError;
use crate::index::KmerIndex;
use crate::kernel::{verify, KernelScratch, VerifyReq};
use crate::nw::AlignmentSummary;
use crate::overlap::{Overlap, OverlapKind};
use fc_exec::Pool;
use fc_obs::Recorder;
use fc_seq::{DnaString, ReadId, ReadStore};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Identity-percentage histogram bounds: the interesting range is 50–100%,
/// the default power-of-two buckets would lump it all together.
const IDENTITY_PCT_BOUNDS: &[u64] = &[50, 60, 70, 80, 85, 90, 92, 94, 96, 98, 99, 100];

/// Distance between sampled seed positions on the query read: every third
/// k-mer start is looked up. ROADMAP item 17 replaces it with a minimizer
/// window.
pub(crate) const SEED_STEP: usize = 3;

/// Parameters of the overlap stage. The paper's evaluation uses a minimum
/// overlap length of 50 bp and minimum identity of 90 % (§VI-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapConfig {
    /// Seed k-mer length.
    pub k: usize,
    /// Minimum k-mer hits on one diagonal cluster before a candidate is
    /// aligned (the paper's "number of k-mer hits greater than a specified
    /// threshold").
    pub min_kmer_hits: usize,
    /// Minimum verified alignment length (columns) for an overlap.
    pub min_overlap_len: usize,
    /// Minimum verified alignment identity for an overlap.
    pub min_identity: f64,
    /// Half-width, in cells, of the band around the seed diagonal that
    /// candidate diagonals cluster in and banded NW verifies within.
    pub band: usize,
}

impl Default for OverlapConfig {
    fn default() -> OverlapConfig {
        OverlapConfig {
            k: 15,
            min_kmer_hits: 2,
            min_overlap_len: 50,
            min_identity: 0.90,
            band: 8,
        }
    }
}

impl OverlapConfig {
    /// Validates parameter sanity.
    pub fn validate(&self) -> Result<(), AlignError> {
        if self.k == 0 || self.k > 32 {
            return Err(AlignError::Config {
                parameter: "k",
                message: format!("must be in 1..=32, got {}", self.k),
            });
        }
        if self.min_kmer_hits == 0 {
            return Err(AlignError::Config {
                parameter: "min_kmer_hits",
                message: "must be > 0".to_string(),
            });
        }
        if !(0.0..=1.0).contains(&self.min_identity) {
            return Err(AlignError::Config {
                parameter: "min_identity",
                message: format!("must be in [0,1], got {}", self.min_identity),
            });
        }
        Ok(())
    }
}

/// Work counters for one subset-pair comparison. These feed the simulated
/// cluster's cost model (fc-dist) and `focus-bench`'s exact layer rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairStats {
    /// Query k-mer lookups performed.
    pub kmer_lookups: u64,
    /// Total seed-index hits returned.
    pub kmer_hits: u64,
    /// Candidate pairs that reached the aligner.
    pub candidates: u64,
    /// DP cells the geometry stage charges: each request's rows times
    /// `2·band + 1` at the request's band. A cost-model input, not a count
    /// of cells computed — most requests never reach the DP, and those
    /// that do run in a band shrunk to their gap bound.
    pub nw_cells: u64,
    /// Overlaps that passed the thresholds.
    pub overlaps: u64,
    /// Candidates rejected by a bit-parallel prefilter bound without
    /// running NW.
    pub prefilter_rejected: u64,
    /// Candidates that reached the DP: not rejected by a bound, not
    /// resolved by the ungapped-optimum rule, verified by band-shrunk NW.
    pub prefilter_verified: u64,
    /// Equal-length candidates whose summary was synthesized from their
    /// Hamming distance `h` because the all-diagonal alignment is provably
    /// NW's unique optimum ([`crate::myers::ungapped_optimum_forced`]);
    /// identical ranges are the `h = 0` case.
    pub exact_hits: u64,
}

impl PairStats {
    /// Accumulates another pair's counters into this one, saturating at
    /// `u64::MAX` — merged totals over huge runs must degrade to a pinned
    /// counter, never wrap around to a small lie.
    pub fn merge(&mut self, other: &PairStats) {
        self.kmer_lookups = self.kmer_lookups.saturating_add(other.kmer_lookups);
        self.kmer_hits = self.kmer_hits.saturating_add(other.kmer_hits);
        self.candidates = self.candidates.saturating_add(other.candidates);
        self.nw_cells = self.nw_cells.saturating_add(other.nw_cells);
        self.overlaps = self.overlaps.saturating_add(other.overlaps);
        self.prefilter_rejected = self.prefilter_rejected.saturating_add(other.prefilter_rejected);
        self.prefilter_verified = self.prefilter_verified.saturating_add(other.prefilter_verified);
        self.exact_hits = self.exact_hits.saturating_add(other.exact_hits);
    }
}

impl fc_ckpt::Codec for PairStats {
    fn encode(&self, w: &mut fc_ckpt::Writer) {
        w.put_u64(self.kmer_lookups);
        w.put_u64(self.kmer_hits);
        w.put_u64(self.candidates);
        w.put_u64(self.nw_cells);
        w.put_u64(self.overlaps);
        w.put_u64(self.prefilter_rejected);
        w.put_u64(self.prefilter_verified);
        w.put_u64(self.exact_hits);
    }

    fn decode(r: &mut fc_ckpt::Reader<'_>) -> Result<PairStats, fc_ckpt::CkptError> {
        Ok(PairStats {
            kmer_lookups: r.u64()?,
            kmer_hits: r.u64()?,
            candidates: r.u64()?,
            nw_cells: r.u64()?,
            overlaps: r.u64()?,
            prefilter_rejected: r.u64()?,
            prefilter_verified: r.u64()?,
            exact_hits: r.u64()?,
        })
    }
}

/// Hasher of the diagonal vote map's `(ReadId, i64)` keys: the two fields
/// are packed into one word as they are written and `finish` spreads it
/// with a single folded 64×64→128-bit multiply. The keys are internal ids
/// bounded by the store size and the read length, not caller-chosen words,
/// so SipHash's flooding resistance bought nothing at one hash per seed
/// hit; and the map's iteration order never reaches an output (the votes
/// are flattened and sorted before use).
#[derive(Debug, Clone, Copy, Default)]
struct VoteHasher(u64);

impl Hasher for VoteHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(byte as u64);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = self.0.rotate_left(32) ^ v;
    }

    fn finish(&self) -> u64 {
        let wide = self.0 as u128 * 0x9E37_79B9_7F4A_7C15_u128;
        wide as u64 ^ (wide >> 64) as u64
    }
}

/// Reusable per-worker buffers for the overlapper's hot path: a query
/// read's sampled k-mers and their index runs, the diagonal vote map and
/// its flattened/sorted view, the candidate list, the verification-request
/// batch and its verdicts, and the verifier's own buffers. One value per
/// worker thread (see [`Overlapper::overlap_column`]) eliminates the
/// per-read and per-verification allocation churn without any cross-thread
/// state.
#[derive(Debug, Default)]
pub struct AlignScratch {
    kmers: Vec<u64>,
    runs: Vec<(u32, u32)>,
    votes: HashMap<(ReadId, i64), u32, BuildHasherDefault<VoteHasher>>,
    flat: Vec<(ReadId, i64, u32)>,
    candidates: Vec<(ReadId, i64)>,
    reqs: Vec<VerifyReq>,
    verdicts: Vec<Option<AlignmentSummary>>,
    kernel: KernelScratch,
}

/// Query reads per alignment task. A constant, not a knob: the task list —
/// and so `exec.tasks` — is the same at every thread count and on both
/// alignment paths, and a task's request batch stays a few hundred
/// kilobytes however large a subset grows.
const QUERY_CHUNK: usize = 512;

/// The per-pair stats and `align.*` metrics of one alignment run, fed pair
/// by pair in canonical `(j, i ≤ j)` order. The one implementation behind
/// [`Overlapper::overlap_all`], [`Overlapper::merge_pair_results`] and the
/// out-of-core merge, so the paths cannot drift apart.
#[derive(Debug, Default)]
pub struct PairTally {
    total: PairStats,
    pairs: Vec<(usize, usize, PairStats)>,
}

impl PairTally {
    /// Records pair `(i, j)`: its stats, and its overlaps `run` in the
    /// length and identity histograms.
    pub fn push(
        &mut self,
        rec: &Recorder,
        (i, j): (usize, usize),
        run: &[Overlap],
        stats: PairStats,
    ) {
        if rec.is_enabled() {
            self.total.merge(&stats);
            rec.observe("align.pair_overlaps", stats.overlaps);
            for overlap in run {
                rec.observe("align.overlap_len", overlap.len as u64);
                rec.observe_with(
                    "align.identity_pct",
                    (overlap.identity * 100.0) as u64,
                    IDENTITY_PCT_BOUNDS,
                );
            }
        }
        self.pairs.push((i, j, stats));
    }

    /// Adds the run's totals to `rec` and returns the per-pair stats.
    pub fn finish(self, rec: &Recorder, config: &OverlapConfig) -> Vec<(usize, usize, PairStats)> {
        let total = self.total;
        if rec.is_enabled() {
            rec.add("align.kmer_lookups", total.kmer_lookups);
            rec.add("align.kmer_hits", total.kmer_hits);
            rec.add("align.candidates", total.candidates);
            rec.add("align.candidates_verified", total.overlaps);
            rec.add(
                "align.candidates_rejected",
                total.candidates.saturating_sub(total.overlaps),
            );
            rec.add("align.nw_cells", total.nw_cells);
            rec.add("align.prefilter.rejected", total.prefilter_rejected);
            rec.add("align.prefilter.verified", total.prefilter_verified);
            rec.add("align.kernel.exact_hits", total.exact_hits);
            rec.gauge("align.band", config.band as i64);
        }
        self.pairs
    }
}

/// Pairwise read overlapper over a preprocessed [`ReadStore`].
pub struct Overlapper<'a> {
    store: &'a ReadStore,
    config: OverlapConfig,
}

impl<'a> Overlapper<'a> {
    /// Creates an overlapper; fails on invalid configuration.
    pub fn new(store: &'a ReadStore, config: OverlapConfig) -> Result<Overlapper<'a>, AlignError> {
        config.validate()?;
        Ok(Overlapper { store, config })
    }

    /// The configuration in use.
    pub fn config(&self) -> &OverlapConfig {
        &self.config
    }

    /// Builds the seed index for one reference subset.
    pub fn index_subset(&self, reference: &[ReadId]) -> KmerIndex {
        let reads: Vec<(ReadId, &DnaString)> = reference
            .iter()
            .map(|&id| (id, self.store.get(id)))
            .collect();
        KmerIndex::build(&reads, self.config.k)
    }

    /// Finds overlaps between `query` reads and an indexed reference
    /// subset, in caller-provided scratch buffers: each worker thread of
    /// the parallel fan-out owns one [`AlignScratch`] for its whole task
    /// stream.
    ///
    /// When `dedup_self` is true (self subset pairs), only pairs with
    /// `query id < reference id` are evaluated so each unordered pair is
    /// considered once across the whole run.
    ///
    /// Seeding and geometry run per query read, accumulating one
    /// [`VerifyReq`] batch for the whole `query` slice;
    /// [`Overlapper::verify_requests`] then verifies the batch, and
    /// overlaps are emitted in request order.
    pub fn overlap_pair_with(
        &self,
        query: &[ReadId],
        index: &KmerIndex,
        dedup_self: bool,
        scratch: &mut AlignScratch,
    ) -> (Vec<Overlap>, PairStats) {
        let mut overlaps = Vec::new();
        let mut stats = PairStats::default();
        self.seed_pair(query, index, dedup_self, &mut stats, scratch);
        self.verify_requests(
            &scratch.reqs,
            &mut scratch.kernel,
            &mut stats,
            &mut scratch.verdicts,
        );
        for (req, verdict) in scratch.reqs.iter().zip(&scratch.verdicts) {
            if let Some(summary) = verdict {
                stats.overlaps += 1;
                overlaps.push(Overlap {
                    a: req.a,
                    b: req.b,
                    kind: req.kind,
                    shift: req.shift,
                    len: summary.columns,
                    identity: summary.identity(),
                });
            }
        }
        (overlaps, stats)
    }

    /// Runs the full all-subset-pairs overlap computation over a work pool,
    /// mirroring the paper's parallel read alignment (§II-B): subsets are
    /// compared pairwise (including each subset against itself) and the
    /// `s(s+1)/2` subset pairs run column by column through
    /// [`Overlapper::overlap_column`]. Returns the overlaps plus the
    /// per-pair stats in `(i, j, stats)` form, both in the canonical serial
    /// `(j, i ≤ j)` order, so the output is bit-identical at any thread
    /// count.
    ///
    /// Every reference subset's index is built once, up front, on the pool
    /// and dropped as soon as its column is done.
    ///
    /// Alignment metrics are recorded into `rec`: aggregate
    /// k-mer/candidate/verification counters (`align.*`), overlap length
    /// and identity histograms, and the scheduling-dependent scratch-reuse
    /// count (`sched.align.scratch_reuses`). Metric aggregation happens
    /// per column, outside the hot tasks.
    pub fn overlap_all(
        &self,
        subsets: &[Vec<ReadId>],
        pool: &Pool,
        rec: &Recorder,
    ) -> (Vec<Overlap>, Vec<(usize, usize, PairStats)>) {
        let _span = rec.span_args(
            "align",
            "align.overlap_all",
            &[("subsets", subsets.len() as i64)],
        );
        let indexes = pool.map_obs(subsets.len(), rec, |j| self.index_subset(&subsets[j]));
        let mut all = Vec::new();
        let mut tally = PairTally::default();
        for (j, index) in indexes.into_iter().enumerate() {
            let pairs: Vec<(usize, usize)> = (0..=j).map(|i| (i, j)).collect();
            let mut at = all.len();
            let stats = self.overlap_column(subsets, &pairs, &index, pool, rec, &mut all);
            drop(index);
            for (&pair, stats) in pairs.iter().zip(stats) {
                let end = at + stats.overlaps as usize;
                tally.push(rec, pair, &all[at..end], stats);
                at = end;
            }
        }
        (all, tally.finish(rec, &self.config))
    }

    /// The one column loop both alignment paths share: aligns every pair
    /// `(i, j)` of `pairs` — one column, so `index` is reference subset
    /// `j`'s — in one pool dispatch over tasks of at most [`QUERY_CHUNK`]
    /// query reads of subset `i`. Overlaps are appended to `out` in the
    /// canonical `(i, chunk)` order, so each pair's run is contiguous; the
    /// returned stats are per pair, in `pairs` order, each the merge of its
    /// chunks'. A query read's seeding and verification depend on that read
    /// alone, so a pair's run is exactly what
    /// [`Overlapper::overlap_pair_with`] returns for the whole subset.
    pub fn overlap_column(
        &self,
        subsets: &[Vec<ReadId>],
        pairs: &[(usize, usize)],
        index: &KmerIndex,
        pool: &Pool,
        rec: &Recorder,
        out: &mut Vec<Overlap>,
    ) -> Vec<PairStats> {
        let tasks: Vec<(usize, &[ReadId])> = pairs
            .iter()
            .enumerate()
            .flat_map(|(p, &(i, _))| subsets[i].chunks(QUERY_CHUNK).map(move |c| (p, c)))
            .collect();
        let mut stats = vec![PairStats::default(); pairs.len()];
        let mut reuses = 0u64;
        // The bool rides along with the scratch to count how often a task
        // found warm buffers: false exactly once per created scratch.
        pool.for_each_ordered(
            tasks.len(),
            rec,
            || (AlignScratch::default(), false),
            |t, scratch| {
                let (p, query) = tasks[t];
                let (i, j) = pairs[p];
                let reused = std::mem::replace(&mut scratch.1, true);
                let (found, chunk) = self.overlap_pair_with(query, index, i == j, &mut scratch.0);
                (p, found, chunk, reused)
            },
            |(p, mut found, chunk, reused)| {
                stats[p].merge(&chunk);
                out.append(&mut found);
                reuses += u64::from(reused);
            },
        );
        rec.add("sched.align.scratch_reuses", reuses);
        stats
    }

    /// Concatenates per-pair results given **in the serial `(j, i ≤ j)`
    /// pair order** (each with its `reused`-scratch flag) into the flat
    /// overlap list and the per-pair stats, recording exactly the metrics
    /// [`Overlapper::overlap_all`] records (through [`PairTally`]).
    pub fn merge_pair_results(
        &self,
        results: impl IntoIterator<Item = ((usize, usize), ((Vec<Overlap>, PairStats), bool))>,
        rec: &Recorder,
    ) -> (Vec<Overlap>, Vec<(usize, usize, PairStats)>) {
        let mut all = Vec::new();
        let mut tally = PairTally::default();
        let mut scratch_reuses = 0u64;
        for (pair, ((mut run, stats), reused)) in results {
            scratch_reuses += u64::from(reused);
            tally.push(rec, pair, &run, stats);
            all.append(&mut run);
        }
        rec.add("sched.align.scratch_reuses", scratch_reuses);
        (all, tally.finish(rec, &self.config))
    }

    /// Runs only the seeding/geometry stage over every subset pair,
    /// returning the full [`VerifyReq`] batch in the canonical serial
    /// `(j, i ≤ j)` order — exactly the work list
    /// [`Overlapper::overlap_all`] verifies; benchmarks use it to time
    /// [`Overlapper::verify_requests`] in isolation from seeding and
    /// voting.
    pub fn gather_requests(&self, subsets: &[Vec<ReadId>]) -> Vec<VerifyReq> {
        let mut scratch = AlignScratch::default();
        let mut stats = PairStats::default();
        let mut reqs = Vec::new();
        for (j, reference) in subsets.iter().enumerate() {
            let index = self.index_subset(reference);
            for (i, query) in subsets[..=j].iter().enumerate() {
                self.seed_pair(query, &index, i == j, &mut stats, &mut scratch);
                reqs.extend_from_slice(&scratch.reqs);
            }
        }
        reqs
    }

    /// Verifies a request batch, one `kernel::verify` per request,
    /// writing one verdict per request into `out` (cleared first). This is
    /// the alignment verification phase in isolation, exposed so
    /// `focus-bench` can time it without seeding noise (`align.verify_s`).
    pub fn verify_requests(
        &self,
        reqs: &[VerifyReq],
        scratch: &mut KernelScratch,
        stats: &mut PairStats,
        out: &mut Vec<Option<AlignmentSummary>>,
    ) {
        out.clear();
        out.reserve(reqs.len());
        for req in reqs {
            out.push(verify(self.store, &self.config, req, scratch, stats));
        }
    }

    /// The seeding and geometry stage of one subset pair: leaves the pair's
    /// [`VerifyReq`] batch, in query order, in `scratch.reqs`.
    fn seed_pair(
        &self,
        query: &[ReadId],
        index: &KmerIndex,
        dedup_self: bool,
        stats: &mut PairStats,
        scratch: &mut AlignScratch,
    ) {
        scratch.reqs.clear();
        for &q in query {
            self.overlap_one(q, index, dedup_self, stats, scratch);
        }
    }

    /// Seeds, votes and classifies the candidates of one query read,
    /// pushing a [`VerifyReq`] per geometry-valid candidate onto
    /// `scratch.reqs` (verification happens later, batched per subset
    /// pair).
    fn overlap_one(
        &self,
        q: ReadId,
        index: &KmerIndex,
        dedup_self: bool,
        stats: &mut PairStats,
        scratch: &mut AlignScratch,
    ) {
        let k = self.config.k;
        let query_seq = self.store.get(q);
        if query_seq.len() < k {
            return;
        }
        let AlignScratch {
            kmers,
            runs,
            votes,
            flat,
            candidates,
            reqs,
            ..
        } = scratch;
        // The read's sampled k-mers, looked up together.
        kmers.clear();
        kmers.extend(query_seq.kmers(k).step_by(SEED_STEP).map(|(_, kmer)| kmer));
        index.runs(kmers, runs);
        stats.kmer_lookups += runs.len() as u64;
        // Vote per (reference read, diagonal).
        votes.clear();
        for (s, &range) in runs.iter().enumerate() {
            let pos = s * SEED_STEP;
            for (r, r_off) in index.hits_of(range) {
                stats.kmer_hits += 1;
                if r == q {
                    continue;
                }
                if dedup_self && r.0 <= q.0 {
                    continue;
                }
                // Never overlap a read with its own reverse complement:
                // those pairs are artifacts of the RC augmentation.
                if self.store.mate(q) == Some(r) {
                    continue;
                }
                let diag = pos as i64 - r_off as i64;
                *votes.entry((r, diag)).or_insert(0) += 1;
            }
        }

        // Cluster diagonals per reference read within the NW band. The vote
        // map is flattened into one (read, diag, count) list sorted by
        // (read, diag); each read's group is then its diag-ascending
        // histogram, swept with a sliding window of width `band`.
        flat.clear();
        flat.extend(votes.iter().map(|(&(r, d), &c)| (r, d, c)));
        flat.sort_unstable();
        candidates.clear();
        let band = self.config.band as i64;
        let mut g = 0usize;
        while g < flat.len() {
            let r = flat[g].0;
            let mut h = g;
            while h < flat.len() && flat[h].0 == r {
                h += 1;
            }
            let diags = &flat[g..h];
            let mut best_votes = 0u32;
            let mut best_diag = 0i64;
            let mut lo = 0usize;
            let mut window_votes = 0u32;
            let mut window_weighted = 0i64;
            for hi in 0..diags.len() {
                window_votes += diags[hi].2;
                window_weighted += diags[hi].1 * diags[hi].2 as i64;
                while diags[hi].1 - diags[lo].1 > band {
                    window_votes -= diags[lo].2;
                    window_weighted -= diags[lo].1 * diags[lo].2 as i64;
                    lo += 1;
                }
                if window_votes > best_votes {
                    best_votes = window_votes;
                    best_diag = window_weighted / window_votes as i64;
                }
            }
            if best_votes as usize >= self.config.min_kmer_hits {
                candidates.push((r, best_diag));
            }
            g = h;
        }
        // Groups are visited in ascending read order with one candidate per
        // read, so `candidates` is already in the (r, d) order the map-based
        // implementation sorted into explicitly.
        for &(r, diag) in candidates.iter() {
            stats.candidates += 1;
            if let Some(req) = self.classify_candidate(q, r, diag) {
                // Work accounting happens at the geometry stage with the
                // request's band, not the band verification shrinks it to.
                let rows = (req.a_range.1 - req.a_range.0) as u64;
                stats.nw_cells += rows * (2 * req.band as u64 + 1);
                reqs.push(req);
            }
        }
    }

    /// Classifies a candidate's overlap geometry from its seed diagonal,
    /// returning the verification request (or `None` when the diagonal
    /// implies no overlap).
    fn classify_candidate(&self, q: ReadId, r: ReadId, diag: i64) -> Option<VerifyReq> {
        let qs = self.store.get(q);
        let rs = self.store.get(r);
        let (len_q, len_r) = (qs.len() as i64, rs.len() as i64);

        // Geometry from the diagonal: r's origin sits `diag` bases right of
        // q's origin when diag >= 0.
        let (a, b, shift, kind, a_range, b_range) = if diag >= 0 {
            let d = diag;
            let ov_q = len_q - d; // q bases expected inside the overlap
            if ov_q <= 0 {
                return None;
            }
            if len_r <= ov_q {
                // r fully inside q.
                (
                    q,
                    r,
                    d as u32,
                    OverlapKind::ContainsB,
                    (d as usize, (d + len_r).min(len_q) as usize),
                    (0usize, len_r as usize),
                )
            } else {
                (
                    q,
                    r,
                    d as u32,
                    OverlapKind::SuffixPrefix,
                    (d as usize, len_q as usize),
                    (0usize, ov_q as usize),
                )
            }
        } else {
            let e = -diag;
            let ov_r = len_r - e; // r bases expected inside the overlap
            if ov_r <= 0 {
                return None;
            }
            if len_q <= ov_r {
                // q fully inside r.
                (
                    q,
                    r,
                    e as u32,
                    OverlapKind::ContainedInB,
                    (0usize, len_q as usize),
                    (e as usize, (e + len_q).min(len_r) as usize),
                )
            } else {
                // Dovetail with r first: suffix of r matches prefix of q.
                (
                    r,
                    q,
                    e as u32,
                    OverlapKind::SuffixPrefix,
                    (e as usize, len_r as usize),
                    (0usize, ov_r as usize),
                )
            }
        };

        Some(VerifyReq {
            a,
            b,
            kind,
            shift,
            a_range,
            b_range,
            band: self.config.band,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fc_rng::Rng;
    use fc_seq::{DnaString, Read};

    pub(crate) fn random_genome(len: usize, seed: u64) -> DnaString {
        let mut rng = Rng::new(seed);
        (0..len)
            .map(|_| fc_seq::Base::from_code(rng.range(0..4)))
            .collect()
    }

    /// Reads of `read_len` every `stride` bases along `genome`.
    fn tile(genome: &DnaString, read_len: usize, stride: usize, name: &str) -> Vec<Read> {
        (0..)
            .step_by(stride)
            .take_while(|start| start + read_len <= genome.len())
            .map(|start| Read::new(format!("{name}{start}"), genome.slice(start, start + read_len)))
            .collect()
    }

    /// No trimming needed (FASTA reads), but preprocess adds the RCs.
    fn store_of(reads: &[Read]) -> ReadStore {
        ReadStore::preprocess(
            reads,
            &fc_seq::TrimConfig {
                min_read_len: 1,
                ..Default::default()
            },
        )
        .unwrap()
    }

    /// Tiles `genome` with reads of `read_len` every `stride` bases.
    fn tiled_store(genome: &DnaString, read_len: usize, stride: usize) -> ReadStore {
        store_of(&tile(genome, read_len, stride, "r"))
    }

    /// What a real read set adds to an error-free tiling: a second tiling
    /// whose reads carry substitutions, a third drawn from a copy of the
    /// genome with a base deleted or inserted every ~80 bases (so
    /// equal-length overlap ranges across an indel have a gapped optimum),
    /// and a tandem repeat tiled out of phase with its period.
    pub(crate) fn noisy_tiled_store(genome: &DnaString, seed: u64) -> ReadStore {
        let mut rng = Rng::new(seed);
        let mut reads = tile(genome, 100, 35, "r");
        for mut read in tile(genome, 100, 45, "s") {
            for _ in 0..rng.range(1..=4) {
                let p = rng.range(0..read.seq.len());
                read.seq.set(p, read.seq.get(p).complement());
            }
            reads.push(read);
        }
        let mut diverged = DnaString::new();
        for (i, base) in genome.iter().enumerate() {
            match (i % 80, i / 80 % 2) {
                (40, 0) => continue, // deletion
                (40, _) => diverged.push(base.complement()), // insertion
                _ => {}
            }
            diverged.push(base);
        }
        reads.extend(tile(&diverged, 100, 40, "d"));
        let repeat: DnaString = "ACGGT".repeat(50).parse().unwrap();
        reads.extend(tile(&repeat, 100, 37, "t"));
        store_of(&reads)
    }

    /// Length of the equal-length ranges `classify_candidate` cut for an
    /// overlap with this geometry.
    fn range_len(store: &ReadStore, o: &Overlap) -> usize {
        match o.kind {
            OverlapKind::SuffixPrefix => store.get(o.a).len() - o.shift as usize,
            OverlapKind::ContainsB => store.get(o.b).len(),
            OverlapKind::ContainedInB => store.get(o.a).len(),
        }
    }

    fn test_config() -> OverlapConfig {
        OverlapConfig {
            min_overlap_len: 30,
            ..OverlapConfig::default()
        }
    }

    /// `overlap_all` on one thread with no recorder.
    fn overlap_serial(
        overlapper: &Overlapper<'_>,
        subsets: &[Vec<ReadId>],
    ) -> (Vec<Overlap>, Vec<(usize, usize, PairStats)>) {
        overlapper.overlap_all(subsets, &Pool::serial(), &Recorder::disabled())
    }

    fn total_of(stats: &[(usize, usize, PairStats)]) -> PairStats {
        let mut total = PairStats::default();
        for (_, _, s) in stats {
            total.merge(s);
        }
        total
    }

    #[test]
    fn finds_dovetails_along_a_tiling() {
        let genome = random_genome(600, 7);
        let store = tiled_store(&genome, 100, 50);
        let overlapper = Overlapper::new(&store, test_config()).unwrap();
        let subsets = store.split_subsets(1);
        let (overlaps, _) = overlap_serial(&overlapper, &subsets);
        assert!(!overlaps.is_empty());
        // Consecutive forward reads overlap by 50 bp: read i (node 2i) and
        // read i+1 (node 2(i+1)) must produce a SuffixPrefix overlap.
        let n_forward = store.len() / 2;
        for i in 0..n_forward - 1 {
            let a = ReadId(2 * i as u32);
            let b = ReadId(2 * (i + 1) as u32);
            let found = overlaps.iter().any(|o| {
                o.kind == OverlapKind::SuffixPrefix
                    && ((o.a == a && o.b == b) || (o.a == b && o.b == a))
            });
            assert!(
                found,
                "missing dovetail between forward reads {i} and {}",
                i + 1
            );
        }
        // Every reported dovetail must meet the thresholds.
        for o in &overlaps {
            assert!(o.len >= 30);
            assert!(o.identity >= 0.90);
        }
    }

    #[test]
    fn detects_containment() {
        let genome = random_genome(200, 11);
        let long = Read::new("long", genome.slice(0, 150));
        let short = Read::new("short", genome.slice(30, 110));
        let store = ReadStore::preprocess(
            &[long, short],
            &fc_seq::TrimConfig {
                min_read_len: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let overlapper = Overlapper::new(&store, test_config()).unwrap();
        let (overlaps, _) = overlap_serial(&overlapper, &store.split_subsets(1));
        let containment = overlaps
            .iter()
            .find(|o| o.contained().is_some())
            .expect("containment overlap not found");
        // The short read (source index 1 -> stored ids 2,3) is contained.
        let inner = containment.contained().unwrap();
        assert!(
            inner.0 >= 2,
            "the short read should be the contained one: {containment:?}"
        );
    }

    #[test]
    fn no_overlaps_between_unrelated_sequences() {
        let a = random_genome(120, 21);
        let b = random_genome(120, 9999);
        let store = ReadStore::preprocess(
            &[Read::new("a", a), Read::new("b", b)],
            &fc_seq::TrimConfig {
                min_read_len: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let overlapper = Overlapper::new(&store, test_config()).unwrap();
        let (overlaps, _) = overlap_serial(&overlapper, &store.split_subsets(1));
        assert!(overlaps.is_empty(), "spurious overlaps: {overlaps:?}");
    }

    #[test]
    fn subset_split_finds_same_overlaps_as_single_subset() {
        let genome = random_genome(800, 5);
        let store = tiled_store(&genome, 100, 40);
        let overlapper = Overlapper::new(&store, test_config()).unwrap();
        let (mut one, _) = overlap_serial(&overlapper, &store.split_subsets(1));
        let (mut four, _) = overlap_serial(&overlapper, &store.split_subsets(4));
        let key = |o: &Overlap| (o.a.0, o.b.0, o.shift, o.len);
        one.sort_by_key(key);
        four.sort_by_key(key);
        let one_keys: Vec<_> = one.iter().map(key).collect();
        let four_keys: Vec<_> = four.iter().map(key).collect();
        assert_eq!(one_keys, four_keys);
    }

    #[test]
    fn tolerates_substitution_errors() {
        let genome = random_genome(300, 13);
        let mut read_a = genome.slice(0, 120);
        let read_b = genome.slice(60, 180);
        // Two substitutions inside the 60 bp overlap: identity 58/60 > 0.9.
        read_a.set(70, read_a.get(70).complement());
        read_a.set(90, read_a.get(90).complement());
        let store = ReadStore::preprocess(
            &[Read::new("a", read_a), Read::new("b", read_b)],
            &fc_seq::TrimConfig {
                min_read_len: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let overlapper = Overlapper::new(&store, test_config()).unwrap();
        let (overlaps, _) = overlap_serial(&overlapper, &store.split_subsets(1));
        assert!(
            overlaps
                .iter()
                .any(|o| o.kind == OverlapKind::SuffixPrefix && o.identity < 1.0),
            "imperfect dovetail not found: {overlaps:?}"
        );
    }

    #[test]
    fn pair_stats_merge_saturates_instead_of_wrapping() {
        let mut a = PairStats {
            kmer_lookups: u64::MAX - 1,
            kmer_hits: u64::MAX,
            candidates: 5,
            nw_cells: u64::MAX - 10,
            overlaps: 0,
            prefilter_rejected: u64::MAX - 1,
            ..PairStats::default()
        };
        let b = PairStats {
            kmer_lookups: 7,
            kmer_hits: 1,
            candidates: 3,
            nw_cells: 100,
            overlaps: 2,
            prefilter_rejected: 5,
            exact_hits: 4,
            ..PairStats::default()
        };
        a.merge(&b);
        assert_eq!(a.kmer_lookups, u64::MAX);
        assert_eq!(a.kmer_hits, u64::MAX);
        assert_eq!(a.candidates, 8);
        assert_eq!(a.nw_cells, u64::MAX);
        assert_eq!(a.overlaps, 2);
        assert_eq!(a.prefilter_rejected, u64::MAX);
        assert_eq!(a.exact_hits, 4);
    }

    #[test]
    fn pooled_overlap_all_is_bit_identical_to_serial() {
        let genome = random_genome(900, 17);
        let store = tiled_store(&genome, 100, 35);
        let overlapper = Overlapper::new(&store, test_config()).unwrap();
        let subsets = store.split_subsets(5);
        let serial = overlap_serial(&overlapper, &subsets);
        for threads in [1usize, 2, 4, 8] {
            let pooled =
                overlapper.overlap_all(&subsets, &Pool::new(threads), &Recorder::disabled());
            // No sorting: the merge itself must reproduce the serial order.
            assert_eq!(pooled.0, serial.0, "overlaps differ at {threads} threads");
            assert_eq!(pooled.1, serial.1, "pair stats differ at {threads} threads");
        }
    }

    /// `overlap_column` against the pair-at-a-time reference —
    /// `overlap_pair_with` on each whole pair, concatenated by
    /// `merge_pair_results` — on subsets that put chunk edges everywhere:
    /// one larger than [`QUERY_CHUNK`] and not a multiple of it, one
    /// smaller, one empty, and a self pair with overlaps across its chunk
    /// boundary. Overlaps, pair stats and the logical snapshot are equal at
    /// every thread count; only `exec.tasks` differs, and it counts the
    /// index builds plus one task per chunk.
    #[test]
    fn overlap_column_matches_the_pair_at_a_time_reference() {
        let genome = random_genome(24_000, 29);
        let store = tiled_store(&genome, 100, 30);
        let ids: Vec<ReadId> = store.ids().collect();
        let (big, small) = (QUERY_CHUNK + QUERY_CHUNK / 3, QUERY_CHUNK / 4);
        let subsets = vec![
            ids[..big].to_vec(),
            ids[big..big + small].to_vec(),
            Vec::new(),
            ids[big + small..].to_vec(),
        ];
        assert!(subsets[3].len() > QUERY_CHUNK && subsets[3].len() % QUERY_CHUNK != 0);
        let overlapper = Overlapper::new(&store, test_config()).unwrap();
        let logical = || Recorder::new(fc_obs::ObsOptions::logical());
        // A snapshot's deterministic part, less the one counter the two
        // schedules are allowed to disagree on.
        let without_tasks = |rec: &Recorder| {
            let mut snapshot = rec.snapshot().without_scheduling();
            let tasks = snapshot.counters.remove("exec.tasks");
            (snapshot.to_json(), tasks)
        };

        let rec = logical();
        let indexes = Pool::serial().map_obs(subsets.len(), &rec, |j| {
            overlapper.index_subset(&subsets[j])
        });
        let mut runs = Vec::new();
        for (j, index) in indexes.iter().enumerate() {
            for (i, query) in subsets.iter().enumerate().take(j + 1) {
                let mut scratch = AlignScratch::default();
                let run = overlapper.overlap_pair_with(query, index, i == j, &mut scratch);
                runs.push(((i, j), (run, false)));
            }
        }
        let (expected, expected_stats) = overlapper.merge_pair_results(runs, &rec);
        let (expected_snapshot, _) = without_tasks(&rec);
        let self_pair = &expected[..expected_stats[0].2.overlaps as usize];
        let edge = ids[QUERY_CHUNK].0;
        assert!(
            self_pair
                .iter()
                .any(|o| o.a.0.min(o.b.0) < edge && o.a.0.max(o.b.0) >= edge),
            "no self-pair overlap straddles the chunk boundary"
        );
        let chunks: usize = (0..subsets.len())
            .flat_map(|j| (0..=j).map(|i| subsets[i].len().div_ceil(QUERY_CHUNK)))
            .sum();

        for threads in [1usize, 2, 4, 8] {
            let rec = logical();
            let (overlaps, stats) = overlapper.overlap_all(&subsets, &Pool::new(threads), &rec);
            assert_eq!(overlaps, expected, "overlaps differ at {threads} threads");
            assert_eq!(
                stats, expected_stats,
                "pair stats differ at {threads} threads"
            );
            let (snapshot, tasks) = without_tasks(&rec);
            assert_eq!(
                snapshot, expected_snapshot,
                "snapshot differs at {threads} threads"
            );
            assert_eq!(
                tasks,
                Some((subsets.len() + chunks) as u64),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn obs_alignment_metrics_are_thread_invariant() {
        let genome = random_genome(900, 17);
        let store = tiled_store(&genome, 100, 35);
        let overlapper = Overlapper::new(&store, test_config()).unwrap();
        let subsets = store.split_subsets(5);
        let baseline = {
            let rec = fc_obs::Recorder::new(fc_obs::ObsOptions::logical());
            let out = overlapper.overlap_all(&subsets, &Pool::serial(), &rec);
            assert_eq!(out, overlap_serial(&overlapper, &subsets));
            rec.snapshot_json()
        };
        assert!(baseline.contains("align.candidates"));
        assert!(baseline.contains("align.overlap_len"));
        for threads in [2usize, 4, 8] {
            let rec = fc_obs::Recorder::new(fc_obs::ObsOptions::logical());
            overlapper.overlap_all(&subsets, &Pool::new(threads), &rec);
            assert_eq!(
                rec.snapshot_json(),
                baseline,
                "metric snapshot differs at {threads} threads"
            );
        }
    }

    #[test]
    fn obs_verified_plus_rejected_equals_candidates() {
        let genome = random_genome(600, 5);
        let store = tiled_store(&genome, 100, 40);
        let overlapper = Overlapper::new(&store, test_config()).unwrap();
        let subsets = store.split_subsets(3);
        let rec = fc_obs::Recorder::new(fc_obs::ObsOptions::logical());
        overlapper.overlap_all(&subsets, &Pool::new(4), &rec);
        let snapshot = rec.snapshot();
        let get = |name| snapshot.counters.get(name).copied().unwrap_or(0);
        assert_eq!(
            get("align.candidates_verified") + get("align.candidates_rejected"),
            get("align.candidates")
        );
        assert!(get("align.kmer_lookups") > 0);
    }

    #[test]
    fn scratch_reuse_across_pairs_matches_fresh_scratch() {
        let genome = random_genome(500, 3);
        let store = tiled_store(&genome, 100, 50);
        let overlapper = Overlapper::new(&store, test_config()).unwrap();
        let subsets = store.split_subsets(3);
        let index = overlapper.index_subset(&subsets[0]);
        let mut reused = AlignScratch::default();
        for subset in &subsets {
            let fresh =
                overlapper.overlap_pair_with(subset, &index, false, &mut AlignScratch::default());
            let with_reuse = overlapper.overlap_pair_with(subset, &index, false, &mut reused);
            assert_eq!(fresh, with_reuse);
        }
    }

    #[test]
    fn config_validation() {
        assert!(OverlapConfig {
            k: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(OverlapConfig {
            k: 33,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(OverlapConfig {
            min_identity: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(OverlapConfig::default().validate().is_ok());
    }

    /// The overlaps `overlap_all` emits are exactly the requests of
    /// `gather_requests` whose banded-NW verdict is `Some`, in order — at
    /// every thread count, with equal pair stats and logical snapshots
    /// across threads. This is the pipeline-level counterpart of the
    /// per-request differential tests in [`crate::kernel`]. The store holds
    /// substituted and indel-bearing reads and a tandem repeat, so `verify`
    /// resolves some candidates from the Hamming count, runs DP on others,
    /// and some accepted overlaps are gapped.
    #[test]
    fn overlap_all_emits_exactly_the_banded_nw_accepts() {
        let genome = random_genome(900, 23);
        let store = noisy_tiled_store(&genome, 5);
        let subsets = store.split_subsets(4);
        let config = test_config();
        let overlapper = Overlapper::new(&store, config).unwrap();
        let mut nw = crate::nw::NwScratch::default();
        let expected: Vec<Overlap> = overlapper
            .gather_requests(&subsets)
            .iter()
            .filter_map(|req| {
                let summary = crate::kernel::banded_nw_verdict(&store, &config, req, &mut nw)?;
                Some(Overlap {
                    a: req.a,
                    b: req.b,
                    kind: req.kind,
                    shift: req.shift,
                    len: summary.columns,
                    identity: summary.identity(),
                })
            })
            .collect();
        assert!(!expected.is_empty());
        assert!(
            expected
                .iter()
                .any(|o| o.len as usize != range_len(&store, o)),
            "no accepted overlap is gapped"
        );
        let run = |threads: usize| {
            let rec = fc_obs::Recorder::new(fc_obs::ObsOptions::logical());
            let (overlaps, stats) = overlapper.overlap_all(&subsets, &Pool::new(threads), &rec);
            assert_eq!(overlaps, expected, "overlaps differ at {threads} threads");
            (stats, rec.snapshot_json())
        };
        let (base_stats, base_snapshot) = run(1);
        let total = total_of(&base_stats);
        assert!(total.exact_hits > 0, "rule never fired: {total:?}");
        assert!(total.prefilter_verified > 0, "DP never ran: {total:?}");
        for threads in [2usize, 4, 8] {
            let (stats, snapshot) = run(threads);
            assert_eq!(stats, base_stats, "pair stats differ at {threads} threads");
            assert_eq!(
                snapshot, base_snapshot,
                "logical snapshot differs at {threads} threads"
            );
        }
    }

    /// `verify` actually takes its shortcuts on this workload: the
    /// prefilter counters are nonzero.
    #[test]
    fn prefilter_counters_reflect_verifier_work() {
        let genome = random_genome(900, 23);
        let store = tiled_store(&genome, 100, 35);
        let overlapper = Overlapper::new(&store, test_config()).unwrap();
        let (_, stats) = overlap_serial(&overlapper, &store.split_subsets(2));
        let total = total_of(&stats);
        assert!(
            total.prefilter_rejected + total.prefilter_verified + total.exact_hits > 0,
            "prefilter never engaged: {total:?}"
        );
    }

    #[test]
    fn never_pairs_a_read_with_its_own_rc() {
        // A palindromic-ish sequence would otherwise match its RC.
        let genome: DnaString = "ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT".parse().unwrap();
        let store = ReadStore::preprocess(
            &[Read::new("p", genome)],
            &fc_seq::TrimConfig {
                min_read_len: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let overlapper = Overlapper::new(
            &store,
            OverlapConfig {
                min_overlap_len: 10,
                ..test_config()
            },
        )
        .unwrap();
        let (overlaps, _) = overlap_serial(&overlapper, &store.split_subsets(1));
        for o in &overlaps {
            assert_ne!(
                store.mate(o.a),
                Some(o.b),
                "read paired with its own RC: {o:?}"
            );
        }
    }
}
