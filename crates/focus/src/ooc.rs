//! Out-of-core assembly: memory budgets, streaming ingest and spilled
//! alignment (ISSUE 10's tentpole).
//!
//! The in-core pipeline holds three big structures at once: the raw input
//! reads, the preprocessed RC-paired store, and every subset's seed index
//! while the overlap list grows. This module removes the first from the
//! resident set and keeps one index at a time, so inputs bigger than the
//! configured [`FocusConfig::memory_budget`] still assemble:
//!
//! * **Streaming ingest** — [`FocusAssembler::assemble_fastq_ooc`] parses
//!   the FASTQ file one read at a time through [`fc_seq::fastq::Reader`],
//!   feeding a [`ReadStoreBuilder`]; the raw input is never resident. The
//!   same single pass folds every read into the input digest
//!   ([`InputDigest`]), so checkpoint compatibility with the in-core path
//!   is exact. Kept reads are optionally staged to disk page by page
//!   ([`fc_seq::PagedStoreWriter`]) so a killed run resumes ingest from
//!   pages instead of re-trimming; only a resumed run, which must know the
//!   digest before it may adopt pages, reads the file once more, first.
//! * **Spilled alignment** — subset-pair results are computed one index
//!   column at a time by the in-core path's column loop
//!   ([`Overlapper::overlap_column`]) and each pair's
//!   `(Vec<Overlap>, PairStats)` run is spilled through
//!   [`fc_ckpt::CheckpointStore`] (CRC-framed records, atomic temp-file +
//!   rename), then read back **in the exact canonical `(j, i ≤ j)` order**
//!   into one list, its metrics recorded by the same [`PairTally`] the
//!   in-core path uses, so contigs *and* logical metric snapshots are
//!   byte-identical.
//!
//! Nothing else differs: the out-of-core run is the in-core stage sequence
//! ([`crate::pipeline`]) given this module's ingest for stage 1 and its
//! spilling alignment for stage 2, under the caller's checkpoint policy.
//!
//! ## Robustness contract
//!
//! Spills inherit checkpoint-grade robustness. Every write failure
//! (`ENOSPC`, unwritable directory — injected or real) degrades spilling
//! with exactly one `ooc.spill.degraded` warning and keeps that pair's
//! result in memory: graceful in-core fallback, never a panic. Every read
//! failure (torn page, short read, bit flip) is caught by the CRC layer,
//! counted under `ooc.spill.rejected`, and answered by recomputing the
//! pair (`ooc.spill.recomputed`) — never silent corruption. All `ooc.*`
//! metrics are excluded from logical snapshots (`fc_obs::OOC_PREFIX`), so
//! fault handling never breaks byte-determinism.

use crate::checkpoint::{
    config_fingerprint, outcome, AlignmentCkpt, AssemblyOutcome, CheckpointOptions, CkptPolicy,
    InputDigest,
};
use crate::config::{FocusConfig, FocusError};
use crate::pipeline::FocusAssembler;
use fc_align::{KmerIndex, Overlap, Overlapper, PairStats, PairTally, Pool};
use fc_ckpt::{decode_from_slice, CheckpointStore, Codec, FsFaultPlan, LoadOutcome, Writer};
use fc_obs::{MemoryBudget, Recorder, Reservation};
use fc_seq::{fastq, PagedReadStore, PagedStoreWriter, ReadStore, ReadStoreBuilder, SeqError};
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};

/// One run's memory-budget ledger plus the reservations held for the rest
/// of the run. Phases charge the structures they are about to build;
/// a failed charge surfaces as [`FocusError::BudgetExceeded`] before the
/// allocation happens.
#[derive(Debug)]
pub(crate) struct RunBudget {
    budget: MemoryBudget,
    held: Vec<Reservation>,
}

impl RunBudget {
    /// A ledger limited by [`FocusConfig::memory_budget`] (unlimited when
    /// `None`).
    pub(crate) fn new(config: &FocusConfig) -> RunBudget {
        let budget = match config.memory_budget {
            Some(limit) => MemoryBudget::with_limit(limit),
            None => MemoryBudget::unlimited(),
        };
        RunBudget {
            budget,
            held: Vec::new(),
        }
    }

    /// The shared ledger, for phases that need scoped (non-run-lifetime)
    /// reservations.
    pub(crate) fn budget(&self) -> &MemoryBudget {
        &self.budget
    }

    /// Reserves `bytes` under `label` for the rest of the run and gauges
    /// the ledger; typed failure when the limit would be exceeded.
    pub(crate) fn charge(
        &mut self,
        rec: &Recorder,
        label: &'static str,
        bytes: u64,
    ) -> Result<(), FocusError> {
        let r = self.budget.try_reserve(label, bytes)?;
        self.held.push(r);
        self.gauge(rec);
        Ok(())
    }

    /// Takes over an externally grown reservation so it lives as long as
    /// the run.
    pub(crate) fn hold(&mut self, rec: &Recorder, reservation: Reservation) {
        self.held.push(reservation);
        self.gauge(rec);
    }

    /// Publishes the ledger as `mem.budget.*` gauges (excluded from
    /// logical snapshots — budgets change peaks, never results).
    pub(crate) fn gauge(&self, rec: &Recorder) {
        if rec.is_enabled() {
            rec.gauge("mem.budget.limit", saturate(self.budget.limit().unwrap_or(0)));
            rec.gauge("mem.budget.used", saturate(self.budget.used()));
            rec.gauge("mem.budget.peak", saturate(self.budget.peak()));
        }
    }
}

fn saturate(v: u64) -> i64 {
    v.min(i64::MAX as u64) as i64
}

/// Where and how the out-of-core path spills.
#[derive(Debug, Clone)]
pub struct OocOptions {
    /// Root directory for spilled state: staged read pages land in
    /// `<spill_dir>/pages`, alignment runs in `<spill_dir>/align`.
    pub spill_dir: PathBuf,
    /// Reads per staged page (bounds ingest buffering; clamped to ≥ 1).
    pub page_len: usize,
    /// Stage trimmed reads to disk during ingest so a killed run resumes
    /// from pages instead of re-trimming. Costs one extra write per page.
    pub stage_reads: bool,
    /// Deterministic filesystem fault injection for the spill layer only
    /// (the phase-checkpoint store keeps its own plan in
    /// [`CheckpointOptions::fs_faults`]).
    pub fs_faults: FsFaultPlan,
}

impl OocOptions {
    /// Spills under `dir` with read staging on, 4096-read pages, no
    /// faults.
    pub fn in_dir(dir: impl Into<PathBuf>) -> OocOptions {
        OocOptions {
            spill_dir: dir.into(),
            page_len: 4096,
            stage_reads: true,
            fs_faults: FsFaultPlan::none(),
        }
    }
}

/// Spill-or-fallback store for per-pair alignment runs. Wraps a
/// [`CheckpointStore`] in the `align/` spill directory: every saved run is
/// CRC-framed and atomically renamed; the first write failure flips the
/// store into degraded mode with exactly one `ooc.spill.degraded`
/// warning, after which pairs simply stay in memory.
struct SpillPairStore<'a> {
    store: CheckpointStore,
    rec: &'a Recorder,
    degraded: bool,
}

const SPILL_PAIR_NAME: &str = "align_pair";

impl<'a> SpillPairStore<'a> {
    fn new(
        dir: &Path,
        config_fp: u64,
        input_digest: u64,
        faults: FsFaultPlan,
        rec: &'a Recorder,
    ) -> SpillPairStore<'a> {
        SpillPairStore {
            store: CheckpointStore::with_faults(dir.to_path_buf(), config_fp, input_digest, faults),
            rec,
            degraded: false,
        }
    }

    fn warn_once(&mut self) {
        if !self.degraded {
            self.degraded = true;
            self.rec.add("ooc.spill.degraded", 1);
            self.rec.instant("ooc", "ooc.spill.degraded", &[]);
        }
    }

    /// Spills pair `t`'s run, encoded straight from the column's slice as
    /// the `(Vec<Overlap>, PairStats)` that [`SpillPairStore::load`]
    /// decodes; `false` means "keep it in memory" (already degraded, or
    /// this write just failed and degraded the store).
    fn save(&mut self, t: usize, run: &[Overlap], stats: &PairStats) -> bool {
        if self.degraded {
            return false;
        }
        let mut w = Writer::new();
        w.put_seq(run);
        stats.encode(&mut w);
        let record = w.into_bytes();
        let bytes = record.len() as u64;
        match self.store.save(t as u32, SPILL_PAIR_NAME, vec![record]) {
            Ok(true) => {
                self.rec.add("ooc.spill.runs", 1);
                self.rec.add("ooc.spill.bytes", bytes);
                true
            }
            Ok(false) | Err(_) => {
                self.warn_once();
                false
            }
        }
    }

    /// Loads pair `t`'s spilled run. `None` means the run is missing or
    /// failed CRC/fingerprint/decode verification (counted under
    /// `ooc.spill.rejected`) — the caller recomputes, never trusts.
    fn load(&mut self, t: usize) -> Option<(Vec<Overlap>, PairStats)> {
        match self.store.load(t as u32, SPILL_PAIR_NAME) {
            LoadOutcome::Missing => None,
            LoadOutcome::Rejected(_) => {
                self.rec.add("ooc.spill.rejected", 1);
                None
            }
            LoadOutcome::Loaded(records) => {
                if records.len() != 1 {
                    self.rec.add("ooc.spill.rejected", 1);
                    return None;
                }
                match decode_from_slice(&records[0]) {
                    Ok(v) => Some(v),
                    Err(_) => {
                        self.rec.add("ooc.spill.rejected", 1);
                        None
                    }
                }
            }
        }
    }
}

impl FocusAssembler {
    /// Assembles a FASTQ file out-of-core, bounded by
    /// [`FocusConfig::memory_budget`]:
    ///
    /// 1. **Digest pass, resume only** — with [`CheckpointOptions::resume`]
    ///    and [`OocOptions::stage_reads`], streams the file once computing
    ///    the input digest in O(1) memory, and adopts the valid staged
    ///    pages of a killed run with that digest instead of step 2 (stale
    ///    pages are recomputed, never trusted).
    /// 2. **Ingest** — streams the file once through the trim pipeline
    ///    into the RC-paired store, never holding the raw input, digesting
    ///    every read on the way; kept reads are staged to
    ///    `<spill_dir>/pages` when [`OocOptions::stage_reads`] is set. After
    ///    a digest pass, the two passes must agree on count and digest.
    /// 3. **Spilled alignment** — one seed-index column resident
    ///    at a time; each subset pair's run spills to
    ///    `<spill_dir>/align` and is merged back in canonical order.
    /// 4. Everything downstream is the shared stage sequence
    ///    ([`crate::pipeline`]) under the same checkpoint policy — same
    ///    code, same checkpoints, same contigs as the in-core path.
    ///
    /// Contigs and logical metric snapshots are byte-identical to
    /// [`assemble`](FocusAssembler::assemble) /
    /// [`assemble_with_checkpoints`](FocusAssembler::assemble_with_checkpoints)
    /// on the same input at any thread count or budget.
    pub fn assemble_fastq_ooc(
        &self,
        input: &Path,
        opts: &CheckpointOptions,
        ooc: &OocOptions,
    ) -> Result<AssemblyOutcome, FocusError> {
        let rec = self.recorder();
        let config = self.config();
        let _span = rec.span("pipeline", "pipeline.assemble_ooc");
        let fp = config_fingerprint(config);
        let pool = Pool::new_obs(config.threads, rec);
        let mut budget = RunBudget::new(config);
        let pages_dir = ooc.spill_dir.join("pages");
        let align_dir = ooc.spill_dir.join("align");

        // Staged pages are adopted only under the digest of the input they
        // were staged from, so a run that may adopt them digests the input
        // first, in O(1) memory. Every other run digests during ingest.
        let digested = if opts.resume && ooc.stage_reads {
            let mut digest = InputDigest::new();
            for read in open_fastq(input)? {
                digest.observe(&read?);
            }
            Some((digest.count(), digest.finish()))
        } else {
            None
        };
        let adopted = digested
            .and_then(|seen| Some((adopt_staged_pages(&pages_dir, fp, seen.1, ooc, rec)?, seen)));
        let (store_reads, (reads_in, input_digest)) = match adopted {
            Some((s, seen)) => {
                budget.charge(rec, "read-store", s.approx_bytes() as u64)?;
                (s, seen)
            }
            None => {
                let (s, ingested) =
                    ingest_fastq(input, config, fp, &pages_dir, ooc, rec, &mut budget)?;
                if let Some(first) = digested.filter(|&first| first != ingested) {
                    return Err(FocusError::Stage {
                        stage: "ooc-ingest",
                        message: format!(
                            "input changed between the digest pass ({} reads, digest {:#018x}) \
                             and the ingest pass ({} reads, digest {:#018x})",
                            first.0, first.1, ingested.0, ingested.1
                        ),
                    });
                }
                (s, ingested)
            }
        };
        // The out-of-core run has no preprocess checkpoint to restore these
        // from, so an adopted store records them as well.
        if rec.is_enabled() {
            rec.add("pipeline.reads_in", reads_in);
            rec.add("pipeline.reads_kept", store_reads.len() as u64);
        }

        let mut policy = CkptPolicy::open(opts, rec, || (fp, input_digest));
        let mem = budget.budget().clone();
        let prepared = self.prepare_from(store_reads, &mut policy, &mut budget, |store| {
            let mut spill =
                SpillPairStore::new(&align_dir, fp, input_digest, ooc.fs_faults.clone(), rec);
            overlap_all_spilled(config, store, &pool, rec, &mut spill, opts.resume, &mem)
        });
        outcome(
            prepared.and_then(|prepared| self.finish(&prepared, config.partitions, &mut policy)),
        )
    }
}

/// Opens a FASTQ file as a streaming reader.
fn open_fastq(path: &Path) -> Result<fastq::Reader<BufReader<File>>, FocusError> {
    let file = File::open(path).map_err(|e| FocusError::Seq(SeqError::from(e)))?;
    Ok(fastq::Reader::new(BufReader::new(file)))
}

/// The store a killed run staged under `pages_dir` from the input digested
/// as `input_digest`, if one is there whole. Nothing usable staged (fresh
/// directory, different input) is a quiet `None`; corruption is counted.
fn adopt_staged_pages(
    pages_dir: &Path,
    fp: u64,
    input_digest: u64,
    ooc: &OocOptions,
    rec: &Recorder,
) -> Option<ReadStore> {
    match PagedReadStore::open(pages_dir, fp, input_digest, ooc.fs_faults.clone()) {
        Ok(mut paged) => match paged.materialize() {
            Ok(s) => {
                rec.add("ooc.ingest.resumed", 1);
                Some(s)
            }
            Err(_) => {
                rec.add("ooc.spill.recomputed", 1);
                None
            }
        },
        Err(fc_seq::PagedError::Stale(_)) => None,
        Err(_) => {
            rec.add("ooc.spill.recomputed", 1);
            None
        }
    }
}

/// The one streaming pass over the FASTQ: each read is folded into the
/// input digest and trimmed into the store, whose growth is charged as it
/// happens, and kept reads are staged to `pages_dir` when
/// [`OocOptions::stage_reads`] is set. Returns the store and the input's
/// `(read count, digest)`.
fn ingest_fastq(
    input: &Path,
    config: &FocusConfig,
    fp: u64,
    pages_dir: &Path,
    ooc: &OocOptions,
    rec: &Recorder,
    budget: &mut RunBudget,
) -> Result<(ReadStore, (u64, u64)), FocusError> {
    let mut digest = InputDigest::new();
    let mut builder = ReadStoreBuilder::new(&config.trim)?;
    let mut staging = ooc
        .stage_reads
        .then(|| PagedStoreWriter::create(pages_dir, fp, ooc.page_len, ooc.fs_faults.clone()));
    let mut staging_degraded = false;
    let mut store_res = budget.budget().try_reserve("read-store", 0)?;
    for read in open_fastq(input)? {
        let read = read?;
        digest.observe(&read);
        let grown = builder.push(&read);
        if grown == 0 {
            continue;
        }
        store_res.grow(grown as u64)?;
        if let Some(w) = staging.as_mut() {
            // `push` returned non-zero, so a kept read exists; if it somehow
            // does not, staging degrades rather than aborting the run.
            let Some((kept, source)) = builder.last_kept() else {
                staging_degraded = true;
                staging = None;
                continue;
            };
            if w.push(kept.clone(), source).is_err() {
                staging_degraded = true;
                staging = None;
            }
        }
    }
    if let Some(w) = staging {
        match w.finish(digest.finish()) {
            Ok(paged) => rec.add("ooc.ingest.staged_pages", u64::from(paged.pages())),
            Err(_) => staging_degraded = true,
        }
    }
    if staging_degraded {
        rec.add("ooc.spill.degraded", 1);
        rec.instant("ooc", "ooc.spill.degraded", &[]);
    }
    let s = builder.finish();
    if s.is_empty() {
        return Err(FocusError::EmptyInput);
    }
    budget.hold(rec, store_res);
    Ok((s, (digest.count(), digest.finish())))
}

/// External-memory variant of [`Overlapper::overlap_all`]: the same column
/// loop, one seed index resident at a time, each pair's run spilled once
/// its column is done, then every run reloaded in canonical `(j, i ≤ j)`
/// order into one list tallied by the same [`PairTally`] — bit-identical.
fn overlap_all_spilled(
    config: &FocusConfig,
    store_reads: &ReadStore,
    pool: &Pool,
    rec: &Recorder,
    spill: &mut SpillPairStore<'_>,
    resume: bool,
    mem: &MemoryBudget,
) -> Result<AlignmentCkpt, FocusError> {
    let overlapper = Overlapper::new(store_reads, config.overlap)?;
    let subsets = store_reads.split_subsets(config.subsets);
    let n = subsets.len();
    let _span = rec.span_args("align", "align.overlap_all_spilled", &[("subsets", n as i64)]);
    let pairs: Vec<(usize, usize)> = (0..n).flat_map(|j| (0..=j).map(move |i| (i, j))).collect();
    let index_bytes = |j: usize| approx_index_bytes(&subsets[j], store_reads, config.overlap.k);

    // Compute columns; spill each pair's run, keeping only what cannot be
    // spilled (degraded store) in memory. `kept_res` charges the kept runs
    // for as long as they are resident (through the merge below); each
    // column's index is a scoped charge released when the column is done.
    // `listed` counts every pair's overlaps, verified on disk or computed.
    let mut kept: Vec<Option<(Vec<Overlap>, PairStats)>> = vec![None; pairs.len()];
    let mut kept_res = mem.try_reserve("align-unspilled", 0)?;
    let mut listed = 0u64;
    for j in 0..n {
        let column_start = j * (j + 1) / 2;
        let mut todo = Vec::new();
        for t in column_start..=column_start + j {
            match resume.then(|| spill.load(t)).flatten() {
                Some((_, stats)) => listed += stats.overlaps,
                None => todo.push(t),
            }
        }
        if todo.is_empty() {
            continue;
        }
        // Built through the pool so `exec.tasks` counts one task per
        // index, exactly like the in-core path's index fan-out.
        let index: KmerIndex = pool
            .map_obs(1, rec, |_| overlapper.index_subset(&subsets[j]))
            .pop()
            .unwrap_or_else(|| overlapper.index_subset(&subsets[j]));
        let index_res = mem.try_reserve("align-index", index_bytes(j))?;
        let column_pairs: Vec<(usize, usize)> = todo.iter().map(|&t| pairs[t]).collect();
        let mut column = Vec::new();
        let stats =
            overlapper.overlap_column(&subsets, &column_pairs, &index, pool, rec, &mut column);
        drop((index, index_res));
        let mut at = 0;
        for (t, stats) in todo.into_iter().zip(stats) {
            let run = &column[at..at + stats.overlaps as usize];
            at += run.len();
            listed += stats.overlaps;
            if spill.save(t, run, &stats) {
                rec.add("ooc.spill.pairs", 1);
            } else {
                let payload = (run.to_vec(), stats);
                kept_res.grow(approx_payload_bytes(&payload))?;
                kept[t] = Some(payload);
            }
        }
    }

    // Reload in canonical order, recomputing any run the CRC layer rejects
    // (fault injection, torn files) from a cached column index that holds
    // an `align-index` charge for as long as it is cached.
    let mut cached: Option<(usize, KmerIndex, Reservation)> = None;
    let mut all = Vec::with_capacity(listed as usize);
    let mut tally = PairTally::default();
    for (t, &(i, j)) in pairs.iter().enumerate() {
        let (mut run, stats) = match kept[t].take().or_else(|| spill.load(t)) {
            Some(payload) => payload,
            None => {
                rec.add("ooc.spill.recomputed", 1);
                let (_, index, _) = match cached.take() {
                    Some(entry) if entry.0 == j => cached.insert(entry),
                    stale => {
                        drop(stale);
                        let res = mem.try_reserve("align-index", index_bytes(j))?;
                        cached.insert((j, overlapper.index_subset(&subsets[j]), res))
                    }
                };
                overlapper.overlap_pair_with(&subsets[i], index, i == j, &mut Default::default())
            }
        };
        tally.push(rec, (i, j), &run, stats);
        all.append(&mut run);
    }
    Ok((all, tally.finish(rec, &config.overlap)))
}

/// What a subset's seed index will hold — the ledger's charge for it on
/// both alignment paths; the layout and its arithmetic live with
/// [`KmerIndex`].
pub(crate) fn approx_index_bytes(subset: &[fc_seq::ReadId], store: &ReadStore, k: usize) -> u64 {
    let bases: usize = subset.iter().map(|&id| store.get(id).len()).sum();
    KmerIndex::estimated_bytes(bases, subset.len(), k)
}

/// Generous estimate of one pair run's in-memory footprint.
fn approx_payload_bytes(payload: &(Vec<Overlap>, PairStats)) -> u64 {
    (payload.0.len() * std::mem::size_of::<Overlap>() + std::mem::size_of::<PairStats>()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::genome;
    use fc_ckpt::ReadFault;
    use fc_seq::Read;

    /// A merge that must recompute a rejected run charges the column index
    /// it builds for as long as it keeps it: on a resumed run, where every
    /// pair verifies on disk and no column builds an index, one rejected
    /// merge read raises the ledger's peak by exactly that index's estimate.
    #[test]
    fn a_merge_recompute_charges_its_column_index() {
        let g = genome(3000, 3);
        let reads: Vec<Read> = (0..g.len() - 100)
            .step_by(50)
            .map(|s| Read::new(format!("r{s}"), g.slice(s, s + 100)))
            .collect();
        let config = FocusConfig::default();
        let store = ReadStore::preprocess(&reads, &config.trim).unwrap();
        let dir = std::env::temp_dir().join(format!("fc-ooc-index-charge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = Recorder::disabled();
        let run = |resume: bool, faults: FsFaultPlan| {
            let mem = MemoryBudget::unlimited();
            let mut spill = SpillPairStore::new(&dir, 1, 2, faults, &rec);
            let out = overlap_all_spilled(
                &config,
                &store,
                &Pool::serial(),
                &rec,
                &mut spill,
                resume,
                &mem,
            );
            (out.unwrap(), mem.peak())
        };
        let (clean, _) = run(false, FsFaultPlan::none());
        let (resumed, resumed_peak) = run(true, FsFaultPlan::none());
        // One verifying read per pair comes first, so read `pairs` is the
        // merge's first: pair (0, 0), recomputed from subset 0's index.
        let pairs = (config.subsets * (config.subsets + 1) / 2) as u64;
        let (faulted, faulted_peak) =
            run(true, FsFaultPlan::none().fail_read(pairs, ReadFault::Short));
        assert!(!clean.0.is_empty());
        assert_eq!(resumed, clean);
        assert_eq!(faulted, clean);
        let subset = &store.split_subsets(config.subsets)[0];
        let index = approx_index_bytes(subset, &store, config.overlap.k);
        assert_eq!(faulted_peak, resumed_peak + index);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
