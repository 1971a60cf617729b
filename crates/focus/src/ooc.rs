//! FASTQ assembly without the raw input: streaming ingest, memory budgets
//! and spilled alignment.
//!
//! The parsed-reads entry points hold the raw input reads, the RC-paired
//! store, and every subset's seed index while the overlap list grows.
//! [`FocusAssembler::assemble_fastq`] never holds the first; out of core it
//! also keeps one index at a time, so inputs bigger than
//! [`FocusConfig::memory_budget`] still assemble:
//!
//! * **Streaming ingest** — borrowed records from
//!   [`fastq::Reader::next_record`] are trimmed straight into a
//!   [`ReadStoreBuilder`] and folded into the input digest
//!   ([`InputDigest`]) in the same pass, so checkpoints match the
//!   parsed-reads path exactly. Out of core, kept reads are staged page by
//!   page ([`fc_seq::PagedStoreWriter`]) so a killed run resumes ingest
//!   from pages; only a resumed run, which must know the digest before it
//!   may adopt pages, reads the file once more, first.
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
//! Nothing else differs: both modes are the stage sequence
//! ([`crate::pipeline`]) with this module's ingest (and, out of core, its
//! spilling alignment) under the caller's checkpoint policy. Staged pages
//! and spilled pair runs are the out-of-core run's own resume state.
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
    Halt, InputDigest,
};
use crate::config::{FocusConfig, FocusError};
use crate::pipeline::{align_in_core, FocusAssembler};
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

/// Reads per staged page: bounds ingest buffering.
const PAGE_LEN: usize = 4096;

/// Where the out-of-core path spills.
#[derive(Debug, Clone)]
pub struct OocOptions {
    /// Root directory for spilled state: staged read pages land in
    /// `<spill_dir>/pages`, alignment runs in `<spill_dir>/align`.
    pub spill_dir: PathBuf,
    /// Deterministic filesystem fault injection for the spill layer only
    /// (the checkpoint store keeps its own plan in
    /// [`CheckpointOptions::fs_faults`]).
    pub fs_faults: FsFaultPlan,
}

impl OocOptions {
    /// Spills under `dir`, no faults.
    pub fn in_dir(dir: impl Into<PathBuf>) -> OocOptions {
        OocOptions {
            spill_dir: dir.into(),
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
    /// Assembles a FASTQ file without ever holding the raw input: one pass
    /// streams its records into the input digest and the store (see the
    /// module docs), and the checkpoint policy opens once the digest
    /// exists. With `ooc: None` it aligns in core, its ledger that of
    /// [`assemble`](FocusAssembler::assemble) minus `input-reads`. With
    /// `Some`, the run is out of core, bounded by
    /// [`FocusConfig::memory_budget`]: kept reads are staged to
    /// `<spill_dir>/pages`, and each subset pair's alignment spills to
    /// `<spill_dir>/align`, one seed-index column resident at a time. A
    /// resumed out-of-core run first digests the file, adopts the pages a
    /// killed run staged from it instead of ingesting, and otherwise
    /// requires the ingest to see the same input.
    ///
    /// Contigs and logical metric snapshots are byte-identical to
    /// [`assemble_with_checkpoints`](FocusAssembler::assemble_with_checkpoints)
    /// on the parsed input, at any thread count or budget.
    pub fn assemble_fastq(
        &self,
        input: &Path,
        opts: &CheckpointOptions,
        ooc: Option<&OocOptions>,
    ) -> Result<AssemblyOutcome, FocusError> {
        let rec = self.recorder();
        let config = self.config();
        let spilled = ("spilled", i64::from(ooc.is_some()));
        let _span = rec.span_args("pipeline", "pipeline.assemble_fastq", &[spilled]);
        let fp = config_fingerprint(config);
        let pool = Pool::new_obs(config.threads, rec);
        let mut budget = RunBudget::new(config);

        // Staged pages are adopted only under the digest of the input they
        // were staged from, so a run that may adopt them digests the input
        // first, in O(1) memory. Every other run digests during ingest.
        let digested = match ooc {
            Some(_) if opts.resume => {
                let (mut digest, mut reader) = (InputDigest::new(), open_fastq(input)?);
                while let Some(record) = reader.next_record()? {
                    digest.observe(&record);
                }
                Some((digest.count(), digest.finish()))
            }
            _ => None,
        };
        let adopted = ooc.zip(digested).and_then(|(ooc, seen)| {
            let pages_dir = ooc.spill_dir.join("pages");
            Some((adopt_staged_pages(&pages_dir, fp, seen.1, ooc, rec)?, seen))
        });
        let (store_reads, (reads_in, input_digest)) = match adopted {
            Some((s, seen)) => {
                budget.charge(rec, "read-store", s.approx_bytes() as u64)?;
                (s, seen)
            }
            None => {
                let (s, ingested) = ingest_fastq(input, config, fp, ooc, rec, &mut budget)?;
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
        if rec.is_enabled() {
            rec.add("pipeline.reads_in", reads_in);
            rec.add("pipeline.reads_kept", store_reads.len() as u64);
        }

        let mut policy = CkptPolicy::open(opts, rec, || (fp, input_digest));
        let mem = budget.budget().clone();
        let prepared =
            self.prepare_from(store_reads, &mut policy, &mut budget, |store| match ooc {
                Some(ooc) => {
                    let dir = ooc.spill_dir.join("align");
                    let faults = ooc.fs_faults.clone();
                    let mut spill = SpillPairStore::new(&dir, fp, input_digest, faults, rec);
                    overlap_all_spilled(config, store, &pool, rec, &mut spill, opts.resume, &mem)
                }
                None => align_in_core(config, store, &pool, rec, &mem),
            });
        outcome(prepared.and_then(|prepared| {
            self.finish(&prepared, config.partitions)
                .map_err(Halt::Failed)
        }))
    }

    /// [`assemble_fastq`](FocusAssembler::assemble_fastq) out of core, kept
    /// under this name only because the benchmark calls it.
    pub fn assemble_fastq_ooc(
        &self,
        input: &Path,
        opts: &CheckpointOptions,
        ooc: &OocOptions,
    ) -> Result<AssemblyOutcome, FocusError> {
        self.assemble_fastq(input, opts, Some(ooc))
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

/// The one streaming pass over the FASTQ: each borrowed record is folded
/// into the input digest and trimmed into the store, whose growth is
/// charged as it happens; out of core, kept reads are also staged to
/// `<spill_dir>/pages`. Returns the store and the input's `(read count,
/// digest)`.
fn ingest_fastq(
    input: &Path,
    config: &FocusConfig,
    fp: u64,
    ooc: Option<&OocOptions>,
    rec: &Recorder,
    budget: &mut RunBudget,
) -> Result<(ReadStore, (u64, u64)), FocusError> {
    let mut digest = InputDigest::new();
    let mut builder = ReadStoreBuilder::new(&config.trim)?;
    let mut staging = ooc.map(|ooc| {
        let pages_dir = ooc.spill_dir.join("pages");
        PagedStoreWriter::create(pages_dir, fp, PAGE_LEN, ooc.fs_faults.clone())
    });
    let mut staging_degraded = false;
    let mut store_res = budget.budget().try_reserve("read-store", 0)?;
    let mut reader = open_fastq(input)?;
    while let Some(record) = reader.next_record()? {
        digest.observe(&record);
        let grown = builder.push_record(&record)?;
        if grown == 0 {
            continue;
        }
        store_res.grow(grown as u64)?;
        if let Some(w) = staging.as_mut() {
            // `push_record` returned non-zero, so a kept read exists; if it
            // somehow does not, staging degrades rather than aborting the run.
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
    use fc_obs::ObsOptions;
    use fc_seq::{QualityScores, Read};

    /// Streaming a FASTQ in core is `assemble` on the parsed reads minus
    /// the parsed reads themselves: the same contigs and logical snapshot,
    /// and a ledger peak lower by exactly the `input-reads` charge.
    #[test]
    fn streamed_in_core_ledger_drops_exactly_the_raw_input() {
        let g = genome(3000, 13);
        let reads: Vec<Read> = (0..g.len() - 100)
            .step_by(40)
            .map(|s| {
                let qual = QualityScores::from_phred(vec![30; 100]);
                Read::with_quality(format!("r{s}"), g.slice(s, s + 100), qual)
            })
            .collect();
        let path = std::env::temp_dir().join(format!("fc-ooc-ledger-{}.fastq", std::process::id()));
        let mut text = Vec::new();
        fastq::write(&mut text, &reads, 30).unwrap();
        std::fs::write(&path, text).unwrap();
        let parsed = fastq::parse(BufReader::new(File::open(&path).unwrap())).unwrap();

        let config = FocusConfig {
            observability: ObsOptions::logical(),
            ..FocusConfig::default()
        };
        let collected = FocusAssembler::new(config).unwrap();
        let whole = collected.assemble(&parsed).unwrap();
        let streamed = FocusAssembler::new(config).unwrap();
        let outcome = streamed.assemble_fastq(&path, &CheckpointOptions::default(), None);
        let Ok(AssemblyOutcome::Completed(streamed_result)) = outcome else {
            panic!("{outcome:?}");
        };
        assert!(!whole.contigs.is_empty());
        assert_eq!(streamed_result.contigs, whole.contigs);
        let (a, b) = (streamed.recorder(), collected.recorder());
        assert_eq!(a.snapshot_json(), b.snapshot_json());
        let peak = |rec: &Recorder| rec.snapshot().gauges.get("mem.budget.peak").copied();
        let raw: usize = parsed.iter().map(Read::approx_bytes).sum();
        assert_eq!(peak(a), peak(b).map(|p| p - raw as i64));
        let _ = std::fs::remove_file(&path);
    }

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
