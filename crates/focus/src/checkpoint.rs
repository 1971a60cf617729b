//! Durable checkpoint/resume for the pipeline: one boundary, alignment.
//!
//! There is one stage sequence ([`crate::pipeline`]); this module is the
//! policy it runs under (the crate-private `CkptPolicy`). The policy has
//! one durable boundary, after §II-B's overlap detection — a verified load,
//! or compute then save — and a plain [`assemble`](crate::FocusAssembler::assemble)
//! is the same sequence under the policy with no store. Alignment is most
//! of what a run computes; every other stage is cheap to redo from the
//! overlaps, so a resumed run recomputes preprocessing (from the input it
//! must read anyway) and everything after alignment.
//! [`FocusAssembler::assemble_file`](crate::FocusAssembler::assemble_file) opens a policy from
//! [`CheckpointOptions`] and persists that boundary through
//! [`fc_ckpt::CheckpointStore`] as `phase_01_alignment.ckpt`. A later run
//! pointed at the same directory with [`CheckpointOptions::resume`] skips
//! alignment when its checkpoint verifies — per-record and whole-file CRCs,
//! format version, config fingerprint and input digest all have to match,
//! otherwise alignment is recomputed and the rejection counted under
//! `ckpt.rejected`. Loaded state is *never* trusted silently. Files a
//! directory may still hold from builds that checkpointed other phases
//! (ids 0 and 2–8) are never opened.
//!
//! ## Determinism contract
//!
//! Every stage of the pipeline is deterministic given its inputs, so a run
//! resumed from the alignment checkpoint produces bit-identical contigs,
//! paths and fault reports to an uninterrupted run: §V replays its
//! `FaultPlan` from the start. The contract matrix (`tests/common/matrix.rs`)
//! stops runs at the boundary, in core and budgeted, resumes them and
//! byte-compares the outputs. Metrics
//! travel with the state: the checkpoint embeds the cumulative metrics
//! snapshot (minus `sched.*`/`ckpt.*`/`mem.*`) at the boundary, and
//! loading it restores them, so logical-clock snapshots are byte-identical
//! too.
//!
//! ## Degradation contract
//!
//! Checkpointing must never take an assembly down with it. A write failure
//! (unwritable directory, disk full — injected or real) emits one
//! `ckpt.degraded` observability event, and the assembly finishes
//! normally.

use crate::config::{FocusConfig, FocusError};
use crate::pipeline::AssemblyResult;
use fc_align::Alignment;
use fc_ckpt::{
    decode_from_slice, encode_to_vec, fnv1a, CheckpointStore, FsFaultPlan, LoadOutcome,
    FNV1A_OFFSET,
};
use fc_obs::{MetricsSnapshot, ObsOptions, Recorder};
use fc_seq::{QualityScores, Read, Record};
use std::path::PathBuf;

/// The checkpointed phase boundaries of the pipeline. The discriminant is
/// the on-disk phase id; ids 0 and 2–8 named boundaries of earlier builds
/// and stay unused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptPhase {
    /// §II-B parallel overlap detection and verification.
    Alignment = 1,
}

impl CkptPhase {
    /// Every checkpointed phase, in pipeline order.
    pub const ALL: [CkptPhase; 1] = [CkptPhase::Alignment];

    /// Stable on-disk phase id.
    pub fn id(self) -> u32 {
        self as u32
    }

    /// Stable snake_case name, used in checkpoint file names and the CLI's
    /// `--crash-after` option.
    pub fn name(self) -> &'static str {
        match self {
            CkptPhase::Alignment => "alignment",
        }
    }

    /// Parses a [`CkptPhase::name`] back into the phase.
    pub fn parse(text: &str) -> Option<CkptPhase> {
        CkptPhase::ALL.iter().copied().find(|p| p.name() == text)
    }
}

/// Checkpointing knobs for one assembly run. Lives outside [`FocusConfig`]
/// (which stays `Copy` and is what the config fingerprint covers) because
/// where checkpoints are stored must not change what is computed.
#[derive(Debug, Clone, Default)]
pub struct CheckpointOptions {
    /// Checkpoint directory; `None` disables checkpointing entirely.
    pub dir: Option<PathBuf>,
    /// Try to load an existing alignment checkpoint before aligning.
    pub resume: bool,
    /// Deterministic filesystem fault injection for the chaos harness.
    pub fs_faults: FsFaultPlan,
    /// Stop the run right after this phase's checkpoint is written — the
    /// chaos harness's deterministic stand-in for "the process died here".
    pub stop_after: Option<CkptPhase>,
}

impl CheckpointOptions {
    /// Checkpoints under `dir`, no resume, no faults, no stop.
    pub fn in_dir(dir: impl Into<PathBuf>) -> CheckpointOptions {
        CheckpointOptions {
            dir: Some(dir.into()),
            ..CheckpointOptions::default()
        }
    }
}

/// What [`FocusAssembler::assemble_file`](crate::FocusAssembler::assemble_file)
/// produced.
#[derive(Debug, Clone)]
pub enum AssemblyOutcome {
    /// The pipeline ran to the end.
    Completed(AssemblyResult),
    /// The run stopped right after checkpointing this phase, as requested
    /// by [`CheckpointOptions::stop_after`].
    Stopped(CkptPhase),
}

/// FNV-1a fingerprint of every configuration field that changes what the
/// pipeline computes. `threads`, `observability` and `memory_budget` are
/// normalised away: results are bit-identical at any thread count or
/// budget and metrics are carried inside the checkpoints, so none of them
/// invalidates saved state.
pub fn config_fingerprint(config: &FocusConfig) -> u64 {
    let mut canonical = *config;
    canonical.threads = 0;
    canonical.memory_budget = None;
    canonical.observability = ObsOptions::default();
    fnv1a(FNV1A_OFFSET, format!("{canonical:?}").bytes())
}

/// Incremental form of [`input_digest`]: feed records one at a time as a
/// reader yields them (the streaming ingest holds one in memory) and
/// [`finish`] at the end. The read count folds in last, so a stream of
/// unknown length digests in a single pass.
///
/// [`finish`]: InputDigest::finish
#[derive(Debug, Clone, Default)]
pub struct InputDigest {
    hash: Option<u64>,
    count: u64,
}

impl InputDigest {
    /// An empty digest; equals `input_digest(&[])` when finished at once.
    pub fn new() -> InputDigest {
        InputDigest {
            hash: None,
            count: 0,
        }
    }

    /// Folds one record into the digest: its name, its bases in upper
    /// case (what a packed read decodes to) and its Phred scores.
    pub fn observe(&mut self, record: &Record<'_>) {
        let h = self.hash.unwrap_or(FNV1A_OFFSET);
        self.count += 1;
        let h = fnv1a(h, record.name.bytes().chain([0xFF]));
        let h = fnv1a(h, record.bases.iter().map(u8::to_ascii_uppercase));
        self.hash = Some(match record.qual {
            Some(q) => fnv1a(h, std::iter::once(0xFE).chain(q.iter().copied())),
            None => fnv1a(h, [0xFD]),
        });
    }

    /// Reads observed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The final digest over everything observed.
    pub fn finish(&self) -> u64 {
        fnv1a(self.hash.unwrap_or(FNV1A_OFFSET), self.count.to_le_bytes())
    }
}

/// FNV-1a digest of the input read set: names, bases and quality scores,
/// in order, with the read count folded in last. Checkpoints from a
/// different input never resume this run.
pub fn input_digest(reads: &[Read]) -> u64 {
    let mut digest = InputDigest::new();
    for read in reads {
        let bases = read.seq.to_ascii();
        digest.observe(&Record {
            name: &read.name,
            bases: &bases,
            qual: read.qual.as_ref().map(QualityScores::as_slice),
        });
    }
    digest.finish()
}

/// Record 1 of the checkpoint: the cumulative logical metrics at the
/// boundary, exactly what a logical snapshot writes.
fn metrics_record(rec: &Recorder) -> Vec<u8> {
    rec.snapshot().logical().to_json().into_bytes()
}

/// Restores an embedded metrics snapshot into the run's recorder. Returns
/// `false` when the blob does not parse — the checkpoint is then rejected
/// as a whole.
fn restore_metrics_record(rec: &Recorder, bytes: &[u8]) -> bool {
    if !rec.is_enabled() {
        return true;
    }
    let Ok(text) = std::str::from_utf8(bytes) else {
        return false;
    };
    match MetricsSnapshot::from_json(text) {
        Ok(snapshot) => {
            rec.restore_metrics(&snapshot);
            true
        }
        Err(_) => false,
    }
}

/// Why the stage sequence returned early: `?` carries a failed stage and a
/// requested stop alike, and only the entry points tell them apart.
#[derive(Debug)]
pub(crate) enum Halt {
    /// A stage failed.
    Failed(FocusError),
    /// The run stopped right after this phase, as the policy asked.
    Stopped(CkptPhase),
}

impl<E: Into<FocusError>> From<E> for Halt {
    fn from(e: E) -> Halt {
        Halt::Failed(e.into())
    }
}

impl Halt {
    /// The error of a run whose policy cannot stop ([`CkptPolicy::off`]).
    pub(crate) fn into_error(self) -> FocusError {
        match self {
            Halt::Failed(e) => e,
            Halt::Stopped(phase) => FocusError::Stage {
                stage: "checkpoint",
                message: format!("stopped after {} without a stop request", phase.name()),
            },
        }
    }
}

/// What the stage sequence produced, as the checkpointing entry points
/// report it: an orderly stop is an outcome, not an error.
pub(crate) fn outcome(run: Result<AssemblyResult, Halt>) -> Result<AssemblyOutcome, FocusError> {
    match run {
        Ok(result) => Ok(AssemblyOutcome::Completed(result)),
        Err(Halt::Stopped(phase)) => Ok(AssemblyOutcome::Stopped(phase)),
        Err(Halt::Failed(e)) => Err(e),
    }
}

/// The checkpoint policy one run of the stage sequence executes under —
/// what [`CheckpointOptions`] says, opened: where the alignment boundary is
/// stored (if anywhere), whether a stored one is loaded, and whether to
/// stop there. The sequence itself (`FocusAssembler::prepare_from` and
/// `FocusAssembler::finish`) is the same under every policy.
pub(crate) struct CkptPolicy<'a> {
    store: Option<CheckpointStore>,
    resume: bool,
    stop_after: Option<CkptPhase>,
    rec: &'a Recorder,
}

impl<'a> CkptPolicy<'a> {
    /// No store, no resume, no stop: the plain run.
    pub(crate) fn off(rec: &'a Recorder) -> CkptPolicy<'a> {
        CkptPolicy {
            store: None,
            resume: false,
            stop_after: None,
            rec,
        }
    }

    /// The policy `opts` describes. `fingerprints` yields the config
    /// fingerprint and the input digest a store stamps its files with; the
    /// digest is a pass over the whole input, so it is asked for only when
    /// there is a store.
    pub(crate) fn open(
        opts: &CheckpointOptions,
        rec: &'a Recorder,
        fingerprints: impl FnOnce() -> (u64, u64),
    ) -> CkptPolicy<'a> {
        let store = opts.dir.as_ref().map(|dir| {
            let (config_fp, input_digest) = fingerprints();
            CheckpointStore::with_faults(
                dir.clone(),
                config_fp,
                input_digest,
                opts.fs_faults.clone(),
            )
        });
        CkptPolicy {
            store,
            resume: opts.resume,
            stop_after: opts.stop_after,
            rec,
        }
    }

    /// The alignment boundary: its verified checkpoint when the policy
    /// resumes and one exists, else `compute()` — then saved.
    pub(crate) fn alignment(
        &mut self,
        compute: impl FnOnce() -> Result<Alignment, FocusError>,
    ) -> Result<Alignment, FocusError> {
        if let Some(value) = self.load() {
            return Ok(value);
        }
        let value = compute()?;
        self.save(&value);
        Ok(value)
    }

    /// The orderly stop [`CheckpointOptions::stop_after`] asks for, taken
    /// once everything the alignment boundary owes (its save, its budget
    /// charge) is done.
    pub(crate) fn stop_after_alignment(&self) -> Result<(), Halt> {
        match self.stop_after {
            Some(phase) => Err(Halt::Stopped(phase)),
            None => Ok(()),
        }
    }

    fn reject(&self) {
        self.rec.add("ckpt.rejected", 1);
        let id = i64::from(CkptPhase::Alignment.id());
        self.rec.instant("ckpt", "ckpt.rejected", &[("phase", id)]);
    }

    /// Payload (record 0) + metrics (record 1) decode of a verified
    /// checkpoint. Any shape or decode failure rejects the whole file.
    fn decode_records(&self, records: &[Vec<u8>]) -> Option<Alignment> {
        if records.len() != 2 {
            return None;
        }
        let value = decode_from_slice(&records[0]).ok()?;
        restore_metrics_record(self.rec, &records[1]).then_some(value)
    }

    /// Loads the alignment checkpoint: `Some(payload)` only when the file
    /// exists, verifies, and decodes; every other outcome means "recompute".
    fn load(&mut self) -> Option<Alignment> {
        if !self.resume {
            return None;
        }
        let (rec, phase) = (self.rec, CkptPhase::Alignment);
        match self.store.as_mut()?.load(phase.id(), phase.name()) {
            LoadOutcome::Missing => None,
            LoadOutcome::Rejected(_) => {
                self.reject();
                None
            }
            LoadOutcome::Loaded(records) => match self.decode_records(&records) {
                Some(value) => {
                    rec.add("ckpt.loaded", 1);
                    rec.instant("ckpt", "ckpt.loaded", &[("phase", i64::from(phase.id()))]);
                    Some(value)
                }
                None => {
                    self.reject();
                    None
                }
            },
        }
    }

    /// Saves the alignment checkpoint. A write failure emits one
    /// `ckpt.degraded` event; the assembly itself continues either way.
    fn save(&mut self, value: &Alignment) {
        let (rec, phase) = (self.rec, CkptPhase::Alignment);
        let Some(store) = self.store.as_mut() else {
            return;
        };
        let records = vec![encode_to_vec(value), metrics_record(rec)];
        match store.save(phase.id(), phase.name(), records) {
            Ok(true) => {
                rec.add("ckpt.saved", 1);
            }
            Ok(false) => {}
            Err(_) => {
                rec.add("ckpt.degraded", 1);
                rec.instant("ckpt", "ckpt.degraded", &[("phase", i64::from(phase.id()))]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::{fastq_file, genome, quick_config, tiled_reads};
    use crate::pipeline::FocusAssembler;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fc-focus-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn completed(outcome: AssemblyOutcome) -> AssemblyResult {
        match outcome {
            AssemblyOutcome::Completed(r) => r,
            AssemblyOutcome::Stopped(p) => panic!("unexpected stop after {p:?}"),
        }
    }

    /// Alignment keeps the id and name its file has always had, and the
    /// retired boundaries no longer parse.
    #[test]
    fn alignment_keeps_its_file_id_and_name() {
        assert_eq!(CkptPhase::ALL, [CkptPhase::Alignment]);
        assert_eq!(CkptPhase::Alignment.id(), 1);
        assert_eq!(CkptPhase::parse("alignment"), Some(CkptPhase::Alignment));
        assert_eq!(
            CheckpointStore::file_name(1, CkptPhase::Alignment.name()),
            "phase_01_alignment.ckpt"
        );
        for retired in ["preprocess", "coarsen", "dist_traversal", "nonsense"] {
            assert_eq!(CkptPhase::parse(retired), None);
        }
    }

    #[test]
    fn fingerprints_ignore_threads_and_observability_but_not_parameters() {
        let mut a = quick_config(4);
        let mut b = quick_config(4);
        b.threads = 7;
        b.observability = ObsOptions::logical();
        assert_eq!(config_fingerprint(&a), config_fingerprint(&b));
        a.overlap.min_overlap_len += 1;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
    }

    #[test]
    fn input_digest_sees_names_bases_and_qualities() {
        let g = genome(300, 1);
        let reads = tiled_reads(&g, 100, 50);
        let base = input_digest(&reads);
        let mut renamed = reads.clone();
        renamed[0].name.push('x');
        assert_ne!(input_digest(&renamed), base);
        let mut requalified = reads.clone();
        requalified[0].qual = Some(fc_seq::QualityScores::from_phred(vec![30; 100]));
        assert_ne!(input_digest(&requalified), base);
        assert_eq!(input_digest(&reads), base);
    }

    #[test]
    fn concurrent_checkpointed_runs_sharing_a_dir_agree_with_plain_assemble() {
        // Two assemblies checkpointing into the same directory at once —
        // the serve layer's restart path can race a resumed job against a
        // retried one. Writers must never tear each other's files: both
        // runs finish, both match the plain pipeline, and the directory
        // still verifies for a third, resuming run.
        let g = genome(2500, 31);
        let reads = tiled_reads(&g, 100, 50);
        let input = fastq_file("concurrent-share", &reads);
        let assembler = FocusAssembler::new(quick_config(4)).unwrap();
        let plain = assembler.assemble(&reads).unwrap();
        let dir = temp_dir("concurrent-share");
        let opts = CheckpointOptions::in_dir(&dir);
        let results: Vec<AssemblyResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let (assembler, input, opts) = (&assembler, &input, &opts);
                    scope.spawn(move || completed(assembler.assemble_file(input, opts).unwrap()))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in &results {
            assert_eq!(r.contigs, plain.contigs);
        }
        // The directory the race left behind is fully usable for resume.
        let mut resume_opts = CheckpointOptions::in_dir(&dir);
        resume_opts.resume = true;
        let resumed = completed(assembler.assemble_file(&input, &resume_opts).unwrap());
        assert_eq!(resumed.contigs, plain.contigs);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&input);
    }

    #[test]
    fn resume_without_checkpoints_just_runs() {
        let g = genome(2000, 31);
        let input = fastq_file("cold-resume", &tiled_reads(&g, 100, 50));
        let assembler = FocusAssembler::new(quick_config(2)).unwrap();
        let dir = temp_dir("cold-resume");
        let mut opts = CheckpointOptions::in_dir(&dir);
        opts.resume = true;
        let result = completed(assembler.assemble_file(&input, &opts).unwrap());
        assert!(!result.contigs.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&input);
    }

    #[test]
    fn unwritable_dir_degrades_but_the_assembly_finishes() {
        let g = genome(2000, 41);
        let input = fastq_file("unwritable", &tiled_reads(&g, 100, 50));
        let mut config = quick_config(2);
        config.observability = ObsOptions::logical();
        let assembler = FocusAssembler::new(config).unwrap();
        let opts = CheckpointOptions::in_dir("/proc/fc-focus-cannot-exist/ckpt");
        let result = completed(assembler.assemble_file(&input, &opts).unwrap());
        let _ = std::fs::remove_file(&input);
        assert!(!result.contigs.is_empty());
        let snapshot = assembler.recorder().snapshot();
        assert_eq!(snapshot.counters.get("ckpt.degraded"), Some(&1));
        assert_eq!(snapshot.counters.get("ckpt.saved"), None);
        // Exactly one warning event.
        let warnings = assembler
            .recorder()
            .events()
            .iter()
            .filter(|e| e.name == "ckpt.degraded")
            .count();
        assert_eq!(warnings, 1);
    }
}
