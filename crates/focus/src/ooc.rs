//! File input: one streaming ingest for every run, and memory budgets.
//!
//! The parsed-reads entry points hold the raw input reads, the RC-paired
//! store, and every subset's seed index while the overlap list grows.
//! [`FocusAssembler::assemble_file`] never holds the first; under a
//! [`FocusConfig::memory_budget`] it also keeps one index at a time:
//!
//! * **Streaming ingest** — the one way a file enters the pipeline, FASTA
//!   or FASTQ, budgeted or not, fresh or resumed. Borrowed records from
//!   [`fc_seq::open`]'s reader are trimmed straight into a
//!   [`ReadStoreBuilder`] and folded into the input digest
//!   ([`InputDigest`]) in the same pass, so checkpoints match the
//!   parsed-reads path exactly. A resumed run re-trims its input like any
//!   other: trimming is the cheap part of the pipeline, so nothing of it is
//!   persisted.
//! * **One alignment loop** — both modes run
//!   [`Overlapper::overlap_all_within`](fc_align::Overlapper::overlap_all_within),
//!   which builds, charges and drops the seed indexes itself. The only
//!   difference is how many it holds at once ([`fc_align::Indexes`]):
//!   every one, built up front, for the parsed-reads entry points and an
//!   unbudgeted file run; one, built when its column starts, for a
//!   budgeted file run. The overlaps, the pair stats, the logical metric
//!   snapshot and the pool's tasks are the same either way.
//!
//! Nothing else differs: both modes are the stage sequence
//! ([`crate::pipeline`]) with this module's ingest under the caller's
//! checkpoint policy. Nothing of an alignment run touches the disk but the
//! alignment checkpoint, the one state a run resumes from, in either mode.
//!
//! ## What the ledger charges
//!
//! The store as it grows, the seed indexes (`align-index`) from before
//! they are built until their columns end, and the overlap list
//! (`overlaps`, 24 B an overlap) as each pair settles: a budget the list
//! outgrows fails, typed, at the pair that crosses it. The list stays in
//! memory because the graph stage reads it whole
//! (`OverlapGraph::directed_view`); on disk it would lower the ledger's
//! number and not the process's peak.

use crate::checkpoint::{
    config_fingerprint, outcome, AssemblyOutcome, CheckpointOptions, CkptPolicy, Halt, InputDigest,
};
use crate::config::{FocusConfig, FocusError};
use crate::pipeline::{FocusAssembler, Source};
use fc_align::Pool;
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

/// Nothing: a [`FocusConfig::memory_budget`] alone selects
/// one-index-at-a-time alignment, and nothing of it is written to disk. Kept,
/// empty, with [`OocOptions::in_dir`] and
/// [`assemble_fastq_ooc`](FocusAssembler::assemble_fastq_ooc), because the
/// benchmark calls them.
#[derive(Debug, Clone, Copy, Default)]
pub struct OocOptions;

impl OocOptions {
    /// An [`OocOptions`]; `dir` is not used.
    pub fn in_dir(_dir: impl Into<PathBuf>) -> OocOptions {
        OocOptions
    }
}

impl FocusAssembler {
    /// Assembles a FASTA or FASTQ file (format by extension, see
    /// [`fc_seq::open`]) without ever holding the raw input: one pass
    /// streams its records into the input digest and the store (see the
    /// module docs), and the checkpoint policy opens once the digest
    /// exists. Without a [`FocusConfig::memory_budget`] it aligns in core,
    /// its ledger that of [`assemble`](FocusAssembler::assemble) minus
    /// `input-reads`. With one, it aligns one seed-index column at a time,
    /// and the ledger holds the run to the budget.
    ///
    /// Contigs and logical metric snapshots are byte-identical to
    /// [`assemble`](FocusAssembler::assemble) on the parsed input, at any
    /// thread count or budget, stopped and resumed or not.
    pub fn assemble_file(
        &self,
        input: &Path,
        opts: &CheckpointOptions,
    ) -> Result<AssemblyOutcome, FocusError> {
        let rec = self.recorder();
        let config = self.config();
        let budgeted = config.memory_budget.is_some();
        let arg = ("budgeted", i64::from(budgeted));
        let _span = rec.span_args("pipeline", "pipeline.assemble_file", &[arg]);
        let fp = config_fingerprint(config);
        let pool = Pool::new_obs(config.threads, rec);
        let mut budget = RunBudget::new(config);
        let (store, digest) = ingest(input, config, rec, &mut budget)?;

        let mut policy = CkptPolicy::open(opts, rec, || (fp, digest.finish()));
        let prepared = self
            .prepare_from(
                store,
                Source::Streamed(digest.count()),
                &pool,
                &mut policy,
                &mut budget,
            )
            .map(|kept| kept.prepared);
        outcome(prepared.and_then(|prepared| {
            self.finish(&prepared, config.partitions)
                .map_err(Halt::Failed)
        }))
    }

    /// [`assemble_file`](FocusAssembler::assemble_file), kept under this
    /// name only because the benchmark calls it; `ooc` is not used.
    pub fn assemble_fastq_ooc(
        &self,
        input: &Path,
        opts: &CheckpointOptions,
        _ooc: &OocOptions,
    ) -> Result<AssemblyOutcome, FocusError> {
        self.assemble_file(input, opts)
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
) -> Result<(ReadStore, InputDigest), FocusError> {
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
    budget.hold(rec, store_res);
    Ok((builder.finish(), digest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::{fastq_file, genome};
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
        let outcome = streamed.assemble_file(&path, &CheckpointOptions::default());
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
}
