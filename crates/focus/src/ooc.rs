//! File input: one streaming ingest for every run, memory budgets, and
//! spilled alignment.
//!
//! The parsed-reads entry points hold the raw input reads, the RC-paired
//! store, and every subset's seed index while the overlap list grows.
//! [`FocusAssembler::assemble_file`] never holds the first; out of core it
//! also keeps one index at a time, so inputs bigger than
//! [`FocusConfig::memory_budget`] still assemble:
//!
//! * **Streaming ingest** — the one way a file enters the pipeline, FASTA
//!   or FASTQ, in core or out, fresh or resumed. Borrowed records from
//!   [`fc_seq::open`]'s reader are trimmed straight into a
//!   [`ReadStoreBuilder`] and folded into the input digest
//!   ([`InputDigest`]) in the same pass, so checkpoints match the
//!   parsed-reads path exactly. A resumed run re-trims its input like any
//!   other: trimming is the cheap part of the pipeline, so nothing of it is
//!   persisted.
//! * **Spilled alignment** — subset-pair results are computed one index
//!   column at a time by the in-core path's column loop
//!   ([`Overlapper::overlap_column`]). Each column's index is built on the
//!   pool by the same two batches as an in-core index (one scatter, then
//!   its bucket ranges sorted in parallel), and each pair's
//!   `(Vec<Overlap>, PairStats)` run is spilled through
//!   [`fc_ckpt::CheckpointStore`] (CRC-framed records, atomic temp-file +
//!   rename) from the pool's in-order sink the moment its last chunk is
//!   in, while the rest of the column aligns. The runs are read back **in
//!   the exact canonical `(j, i ≤ j)` order** into one list, its metrics
//!   recorded by the same [`PairTally`] the in-core path uses, so contigs
//!   *and* logical metric snapshots are byte-identical.
//!
//! Nothing else differs: both modes are the stage sequence
//! ([`crate::pipeline`]) with this module's ingest (and, out of core, its
//! spilling alignment) under the caller's checkpoint policy. Spilled pair
//! runs are scratch: a run reads back only the runs it wrote, and resumes,
//! in core or out, only from a verified alignment checkpoint.
//!
//! ## Robustness contract
//!
//! Spills inherit checkpoint-grade robustness. Every write failure
//! (`ENOSPC`, unwritable directory — injected or real) degrades spilling
//! with exactly one `ooc.spill.degraded` warning and keeps that pair's
//! result in memory: graceful in-core fallback, never a panic. Every read
//! failure (torn file, short read, bit flip) is caught by the CRC layer,
//! counted under `ooc.spill.rejected`, and answered by recomputing the
//! pair (`ooc.spill.recomputed`) — never silent corruption. No `ooc.*`
//! metric is logical ([`fc_obs::MetricsSnapshot::logical`]), so fault
//! handling never breaks byte-determinism.

use crate::checkpoint::{
    config_fingerprint, outcome, AssemblyOutcome, CheckpointOptions, CkptPolicy, Halt, InputDigest,
};
use crate::config::{FocusConfig, FocusError};
use crate::pipeline::{align_in_core, FocusAssembler};
use fc_align::{Alignment, KmerIndex, Overlap, Overlapper, PairStats, PairTally, Pool};
use fc_ckpt::{decode_from_slice, CheckpointStore, Codec, FsFaultPlan, LoadOutcome, Writer};
use fc_obs::{MemoryBudget, Recorder, Reservation};
use fc_seq::{ReadStore, ReadStoreBuilder};
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
            rec.gauge(
                "mem.budget.limit",
                saturate(self.budget.limit().unwrap_or(0)),
            );
            rec.gauge("mem.budget.used", saturate(self.budget.used()));
            rec.gauge("mem.budget.peak", saturate(self.budget.peak()));
        }
    }
}

fn saturate(v: u64) -> i64 {
    v.min(i64::MAX as u64) as i64
}

/// Where the out-of-core path spills.
#[derive(Debug, Clone)]
pub struct OocOptions {
    /// Root directory for spilled state: alignment runs land in
    /// `<spill_dir>/align`.
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
    /// Assembles a FASTA or FASTQ file (format by extension, see
    /// [`fc_seq::open`]) without ever holding the raw input: one pass
    /// streams its records into the input digest and the store (see the
    /// module docs), and the checkpoint policy opens once the digest
    /// exists. With `ooc: None` it aligns in core, its ledger that of
    /// [`assemble`](FocusAssembler::assemble) minus `input-reads`. With
    /// `Some`, the run is out of core, bounded by
    /// [`FocusConfig::memory_budget`]: each subset pair's alignment spills
    /// to `<spill_dir>/align`, one seed-index column resident at a time.
    ///
    /// Contigs and logical metric snapshots are byte-identical to
    /// [`assemble`](FocusAssembler::assemble) on the parsed input, at any
    /// thread count or budget, stopped and resumed or not.
    pub fn assemble_file(
        &self,
        input: &Path,
        opts: &CheckpointOptions,
        ooc: Option<&OocOptions>,
    ) -> Result<AssemblyOutcome, FocusError> {
        let rec = self.recorder();
        let config = self.config();
        let spilled = ("spilled", i64::from(ooc.is_some()));
        let _span = rec.span_args("pipeline", "pipeline.assemble_file", &[spilled]);
        let fp = config_fingerprint(config);
        let pool = Pool::new_obs(config.threads, rec);
        let mut budget = RunBudget::new(config);
        let (store_reads, input_digest) = ingest(input, config, rec, &mut budget)?;

        let mut policy = CkptPolicy::open(opts, rec, || (fp, input_digest));
        let mem = budget.budget().clone();
        let prepared = self
            .prepare_from(
                store_reads,
                &pool,
                &mut policy,
                &mut budget,
                |store| match ooc {
                    Some(ooc) => {
                        let dir = ooc.spill_dir.join("align");
                        let faults = ooc.fs_faults.clone();
                        let mut spill = SpillPairStore::new(&dir, fp, input_digest, faults, rec);
                        overlap_all_spilled(config, store, &pool, rec, &mut spill, &mem)
                    }
                    None => align_in_core(config, store, &pool, rec, &mem),
                },
            )
            .map(|stages| stages.prepared);
        outcome(prepared.and_then(|prepared| {
            self.finish(&prepared, config.partitions)
                .map_err(Halt::Failed)
        }))
    }

    /// [`assemble_file`](FocusAssembler::assemble_file) out of core, kept
    /// under this name only because the benchmark calls it.
    pub fn assemble_fastq_ooc(
        &self,
        input: &Path,
        opts: &CheckpointOptions,
        ooc: &OocOptions,
    ) -> Result<AssemblyOutcome, FocusError> {
        self.assemble_file(input, opts, Some(ooc))
    }
}

/// The one streaming pass over the input file: each borrowed record is
/// folded into the input digest and trimmed into the store, whose growth
/// is charged as it happens. Returns the store and the input's digest.
fn ingest(
    input: &Path,
    config: &FocusConfig,
    rec: &Recorder,
    budget: &mut RunBudget,
) -> Result<(ReadStore, u64), FocusError> {
    let mut digest = InputDigest::new();
    let mut builder = ReadStoreBuilder::new(&config.trim)?;
    let mut store_res = budget.budget().try_reserve("read-store", 0)?;
    let mut reader = fc_seq::open(input)?;
    while let Some(record) = reader.next_record()? {
        digest.observe(&record);
        let grown = builder.push_record(&record)?;
        if grown > 0 {
            store_res.grow(grown as u64)?;
        }
    }
    let store = builder.finish();
    if store.is_empty() {
        return Err(FocusError::EmptyInput);
    }
    budget.hold(rec, store_res);
    if rec.is_enabled() {
        rec.add("pipeline.reads_in", digest.count());
        rec.add("pipeline.reads_kept", store.len() as u64);
    }
    Ok((store, digest.finish()))
}

/// External-memory variant of [`Overlapper::overlap_all`]: the same column
/// loop, one seed index resident at a time, each pair's run spilled as soon
/// as its last chunk is aligned, then every run reloaded in canonical
/// `(j, i ≤ j)` order into one list tallied by the same [`PairTally`] —
/// bit-identical.
fn overlap_all_spilled(
    config: &FocusConfig,
    store_reads: &ReadStore,
    pool: &Pool,
    rec: &Recorder,
    spill: &mut SpillPairStore<'_>,
    mem: &MemoryBudget,
) -> Result<Alignment, FocusError> {
    let overlapper = Overlapper::new(store_reads, config.overlap)?;
    let subsets = store_reads.split_subsets(config.subsets);
    overlapper.check_capacity(&subsets)?;
    let n = subsets.len();
    let _span = rec.span_args(
        "align",
        "align.overlap_all_spilled",
        &[("subsets", n as i64)],
    );
    let pairs: Vec<(usize, usize)> = (0..n).flat_map(|j| (0..=j).map(move |i| (i, j))).collect();
    let index_bytes = |j: usize| approx_index_bytes(&subsets[j], store_reads, config.overlap.k);

    // Compute columns; spill each pair's run, keeping only what cannot be
    // spilled (degraded store) in memory. `kept_res` charges the kept runs
    // for as long as they are resident (through the merge below); each
    // column's index is a scoped charge released when the column is done.
    // `listed` counts every pair's overlaps.
    let mut kept: Vec<Option<(Vec<Overlap>, PairStats)>> = vec![None; pairs.len()];
    let mut kept_res = mem.try_reserve("align-unspilled", 0)?;
    let mut listed = 0u64;
    for j in 0..n {
        let first = j * (j + 1) / 2;
        // Built on the pool exactly as the in-core path builds each of its
        // indexes, so `exec.tasks` is the same on both paths.
        let index: KmerIndex = overlapper
            .index_subsets(&subsets[j..=j], pool, rec)?
            .pop()
            .unwrap_or_else(|| overlapper.index_subset(&subsets[j]));
        let index_res = mem.try_reserve("align-index", index_bytes(j))?;
        // Each pair is saved from the pool's in-order sink as soon as its
        // last chunk is in, so saves keep `t` order (and the store's write
        // numbering) while the other workers go on aligning the column.
        // The column's overlaps stay in one list until the column is done:
        // saving from a list of one pair's run instead left the freed
        // indexes' heap resident and raised `ooc-t2`'s peak RSS by 1 MB.
        // After a failed charge the column only drains.
        let mut column = Vec::new();
        let mut charged = Ok(());
        overlapper.overlap_column(
            &subsets,
            &pairs[first..=first + j],
            &index,
            pool,
            rec,
            |p, mut found, done| {
                column.append(&mut found);
                let Some(stats) = done else { return };
                let t = first + p;
                listed += stats.overlaps;
                let run = &column[column.len() - stats.overlaps as usize..];
                if charged.is_err() {
                    return;
                }
                if spill.save(t, run, &stats) {
                    rec.add("ooc.spill.pairs", 1);
                } else {
                    let payload = (run.to_vec(), stats);
                    charged = kept_res.grow(approx_payload_bytes(&payload));
                    kept[t] = Some(payload);
                }
            },
        );
        drop((index, index_res, column));
        charged?;
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
    use crate::pipeline::tests::{fastq_file, genome};
    use fc_ckpt::{ReadFault, WriteFault};
    use fc_obs::ObsOptions;
    use fc_seq::Read;

    /// Streaming a FASTQ in core is `assemble` on the parsed reads minus
    /// the parsed reads themselves: the same contigs and logical snapshot,
    /// and a ledger peak lower by exactly the `input-reads` charge.
    #[test]
    fn streamed_in_core_ledger_drops_exactly_the_raw_input() {
        let g = genome(3000, 13);
        let reads: Vec<Read> = (0..g.len() - 100)
            .step_by(40)
            .map(|s| Read::new(format!("r{s}"), g.slice(s, s + 100)))
            .collect();
        let path = fastq_file("ooc-ledger", &reads);
        let parsed: Vec<Read> = fc_seq::open(&path)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();

        let config = FocusConfig {
            observability: ObsOptions::logical(),
            ..FocusConfig::default()
        };
        let collected = FocusAssembler::new(config).unwrap();
        let whole = collected.assemble(&parsed).unwrap();
        let streamed = FocusAssembler::new(config).unwrap();
        let outcome = streamed.assemble_file(&path, &CheckpointOptions::default(), None);
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
    /// it builds for as long as it keeps it. The store degrades at its
    /// second save, so every run after pair (0, 0)'s stays in memory,
    /// charged, through the merge; the merge's first read, pair (0, 0)'s,
    /// is rejected and recomputed from subset 0's index. Subset 0 holds a
    /// read more than the last subset, so the ledger's peak is the kept
    /// runs plus subset 0's index, where the run without the rejected read
    /// peaks at the kept runs plus the last column's index.
    #[test]
    fn a_merge_recompute_charges_its_column_index() {
        let g = genome(3050, 3);
        let reads: Vec<Read> = (0..g.len() - 100)
            .step_by(50)
            .map(|s| Read::new(format!("r{s}"), g.slice(s, s + 100)))
            .collect();
        let config = FocusConfig::default();
        let store = ReadStore::preprocess(&reads, &config.trim).unwrap();
        let subsets = store.split_subsets(config.subsets);
        let index = |j: usize| approx_index_bytes(&subsets[j], &store, config.overlap.k);
        let last = subsets.len() - 1;
        assert!(index(0) > index(last));
        let dir = std::env::temp_dir().join(format!("fc-ooc-index-charge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = Recorder::disabled();
        let run = |faults: FsFaultPlan| {
            let mem = MemoryBudget::unlimited();
            let mut spill = SpillPairStore::new(&dir, 1, 2, faults, &rec);
            let out = overlap_all_spilled(&config, &store, &Pool::serial(), &rec, &mut spill, &mem);
            (out.unwrap(), mem.peak())
        };
        let (clean, _) = run(FsFaultPlan::none());
        let degrade = FsFaultPlan::none().fail_write(1, WriteFault::Enospc);
        let (degraded, degraded_peak) = run(degrade.clone());
        let (faulted, faulted_peak) = run(degrade.fail_read(0, ReadFault::Short));
        assert!(!clean.0.is_empty());
        assert_eq!(degraded, clean);
        assert_eq!(faulted, clean);
        let kept: u64 = clean.1[1..]
            .iter()
            .map(|(_, _, stats)| {
                let run = stats.overlaps as usize * std::mem::size_of::<Overlap>();
                (run + std::mem::size_of::<PairStats>()) as u64
            })
            .sum();
        assert_eq!(degraded_peak, kept + index(last));
        assert_eq!(faulted_peak, kept + index(0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
