//! The production [`JobRunner`] behind `focus serve`: each job is one
//! checkpointed assembly run.
//!
//! The runner owns a *base* [`FocusConfig`]; per job it overrides only the
//! thread count (the server divides the machine between workers) and
//! forces logical-clock observability, so every job's metrics snapshot is
//! byte-identical regardless of thread count or how many times the run
//! crashed and resumed — the oracle the serve chaos harness byte-compares.
//!
//! The job's FASTQ is streamed through
//! [`FocusAssembler::assemble_file`], never held whole. Resume is always
//! on: the runner checkpoints the alignment boundary under the job's
//! `ckpt/` directory (keyed by the existing config/input fingerprints), so
//! re-running after a `kill -9` reloads the overlaps instead of aligning
//! again and recomputes the cheap stages after them. A budgeted job aligns
//! one seed-index column at a time and writes nothing but that
//! checkpoint: killed before it, a job aligns again.
//!
//! Failure classification mirrors the retry contract of
//! [`fc_serve::runner`]: rank-loss failures from the simulated cluster's
//! fault injection and stage-internal errors are transient (a retry can
//! legitimately succeed), while config/validation/input errors are
//! permanent — retrying cannot fix a malformed FASTQ or an input of no
//! known format, so such jobs must not burn the backoff budget.

use crate::checkpoint::{AssemblyOutcome, CheckpointOptions};
use crate::config::{FocusConfig, FocusError};
use crate::pipeline::FocusAssembler;
use fc_obs::ObsOptions;
use fc_serve::{JobContext, JobError, JobOutput, JobRunner};

/// Runs submitted FASTQ jobs through the full Focus pipeline with
/// checkpoint/resume. See the module docs for the determinism contract.
#[derive(Debug, Clone)]
pub struct AssemblyJobRunner {
    base: FocusConfig,
}

impl AssemblyJobRunner {
    /// Creates a runner from a validated base configuration.
    pub fn new(base: FocusConfig) -> Result<AssemblyJobRunner, FocusError> {
        base.validate()?;
        Ok(AssemblyJobRunner { base })
    }
}

/// Stable 64-bit FNV-1a fingerprint of a tenant name, squeezed into the
/// integer-only span-arg space (sign-preserving bit cast).
fn tenant_fnv(tenant: &str) -> i64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in tenant.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h as i64
}

/// Maps a pipeline failure onto the serve retry contract. Distributed
/// errors are split by variant: only fault-injection losses (ranks dying,
/// partitions lost in flight) can succeed on retry; validation, config and
/// invariant defects are deterministic and fail the same way every attempt.
fn classify(e: FocusError) -> JobError {
    let transient = match &e {
        FocusError::Dist(d) => matches!(
            d,
            fc_dist::DistError::AllRanksDead { .. } | fc_dist::DistError::LostPartition { .. }
        ),
        FocusError::Stage { .. } => true,
        // Reading the input (opening it included) surfaces I/O as a seq
        // error, which is retryable. Malformed FASTQ — an over-long line
        // too — is a parse variant and stays permanent, and so does a file
        // name of no known format.
        FocusError::Seq(fc_seq::SeqError::Io(_)) => true,
        // A blown memory budget is deterministic for a given input and
        // config: retrying the same job burns the backoff budget for
        // nothing. The server's admission layer is the right place to
        // wait for pressure to clear.
        FocusError::BudgetExceeded(_) => false,
        _ => false,
    };
    JobError {
        transient,
        message: e.to_string(),
    }
}

impl JobRunner for AssemblyJobRunner {
    fn run(&self, ctx: &JobContext) -> Result<JobOutput, JobError> {
        if ctx.canceled() {
            return Err(JobError::permanent("canceled before assembly started"));
        }
        let mut config = self.base;
        config.threads = ctx.threads.max(1);
        config.observability = ObsOptions::logical();
        let assembler = FocusAssembler::new(config).map_err(classify)?;
        let mut opts = CheckpointOptions::in_dir(&ctx.ckpt_dir);
        opts.resume = true;
        // Root every span of this run under a job-tagged span so the trace
        // served at `GET /jobs/{id}/trace` attributes all work to the job
        // and its tenant (args are integer-only, so the tenant is an FNV
        // fingerprint; the string lives in the job metadata).
        let job_span = assembler.recorder().span_args(
            "serve",
            "serve.job",
            &[
                ("job", ctx.id.0 as i64),
                ("tenant_fnv", tenant_fnv(&ctx.tenant)),
            ],
        );
        // Every job streams its input; a budgeted job aligns one column
        // index at a time.
        let outcome = assembler
            .assemble_file(&ctx.input_path, &opts)
            .map_err(classify)?;
        drop(job_span);
        let trace_json = fc_obs::write_chrome_trace(&assembler.recorder().events());
        let result = match outcome {
            AssemblyOutcome::Completed(result) => result,
            // Unreachable without stop_after, but keep it typed and
            // retryable rather than panicking in a worker.
            AssemblyOutcome::Stopped(phase) => {
                return Err(JobError::transient(format!(
                    "run stopped unexpectedly after phase {}",
                    phase.name()
                )));
            }
        };

        let mut contigs_fasta = Vec::new();
        result
            .write_fasta(&mut contigs_fasta)
            .map_err(|e| JobError::permanent(format!("render contigs: {e}")))?;

        Ok(JobOutput {
            contigs_fasta,
            metrics_json: assembler.recorder().snapshot_json(),
            trace_json,
            num_contigs: result.stats.num_contigs as u64,
            n50: result.stats.n50 as u64,
            total_bases: result.stats.total_bases as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::{genome, quick_config, tiled_reads};
    use fc_seq::{fastq, Read};
    use std::path::{Path, PathBuf};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// A fresh `fc-focus-serve-<tag>-<pid>` under the system temp dir,
    /// removed with what it holds when the guard drops.
    struct TempDir(PathBuf);

    impl std::ops::Deref for TempDir {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn temp_dir(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("fc-focus-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        TempDir(dir)
    }

    fn write_fastq(dir: &std::path::Path, reads: &[Read]) -> PathBuf {
        let path = dir.join("input.fastq");
        let mut bytes = Vec::new();
        fastq::write(&mut bytes, reads, 30).expect("render fastq");
        std::fs::write(&path, bytes).expect("write fastq");
        path
    }

    fn ctx(dir: &std::path::Path, input: PathBuf) -> JobContext {
        JobContext {
            id: fc_serve::JobId(1),
            tenant: "t".to_string(),
            input_path: input,
            ckpt_dir: dir.join("ckpt"),
            threads: 1,
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    #[test]
    fn runs_a_job_and_resumes_byte_identically() {
        let dir = temp_dir("resume");
        let g = genome(2_000, 7);
        let input = write_fastq(&dir, &tiled_reads(&g, 120, 40));
        let runner = AssemblyJobRunner::new(quick_config(4)).expect("runner");

        let first = runner.run(&ctx(&dir, input.clone())).expect("first run");
        assert!(first.num_contigs >= 1);
        assert!(!first.contigs_fasta.is_empty());
        assert!(first.metrics_json.contains("focus-metrics-v1"));
        // The trace artifact is a valid causal Chrome trace rooted in the
        // job-tagged span, and the profiler accepts it.
        assert!(first.trace_json.contains("serve.job"));
        assert!(first.trace_json.contains("tenant_fnv"));
        let profile = fc_obs::profile_chrome_trace(&first.trace_json).expect("profiles");
        assert!(profile.critical_path_total() <= profile.run_wall);

        // Second run resumes from the checkpoints the first one left and
        // must reproduce outputs and logical metrics byte for byte.
        let second = runner.run(&ctx(&dir, input)).expect("resumed run");
        assert_eq!(first.contigs_fasta, second.contigs_fasta);
        assert_eq!(first.metrics_json, second.metrics_json);
        assert_eq!(
            (first.num_contigs, first.n50, first.total_bases),
            (second.num_contigs, second.n50, second.total_bases)
        );
    }

    /// A budgeted job leaves its alignment checkpoint in `ckpt/` and
    /// nothing beside it. Killed before that checkpoint was saved, the job
    /// run again aligns afresh and reproduces the first run's contigs and
    /// logical metrics byte for byte.
    #[test]
    fn a_budgeted_job_resumed_before_its_checkpoint_is_byte_identical() {
        let dir = temp_dir("ooc-precheckpoint");
        let g = genome(2_000, 7);
        let input = write_fastq(&dir, &tiled_reads(&g, 120, 40));
        let mut config = quick_config(4);
        config.memory_budget = Some(1 << 30);
        let runner = AssemblyJobRunner::new(config).expect("runner");

        let first = runner.run(&ctx(&dir, input.clone())).expect("first run");
        let ckpt = dir.join("ckpt");
        let names = |dir: &Path| -> Vec<_> {
            let entries = std::fs::read_dir(dir).expect("ckpt dir");
            entries.map(|e| e.expect("entry").file_name()).collect()
        };
        assert_eq!(names(&ckpt), ["phase_01_alignment.ckpt"]);
        std::fs::remove_file(ckpt.join("phase_01_alignment.ckpt")).expect("checkpoint saved");
        let second = runner.run(&ctx(&dir, input)).expect("rerun");
        assert_eq!(first.contigs_fasta, second.contigs_fasta);
        assert_eq!(first.metrics_json, second.metrics_json);
        assert_eq!(names(&ckpt), ["phase_01_alignment.ckpt"]);
    }

    #[test]
    fn malformed_input_is_a_permanent_error() {
        let dir = temp_dir("badinput");
        let input = dir.join("bad.fastq");
        std::fs::write(&input, b"this is not fastq\n").expect("write");
        let runner = AssemblyJobRunner::new(quick_config(4)).expect("runner");
        let err = runner.run(&ctx(&dir, input)).expect_err("must fail");
        assert!(!err.transient, "parse failures must not retry: {err:?}");
    }

    #[test]
    fn missing_input_is_transient() {
        let dir = temp_dir("missing");
        let runner = AssemblyJobRunner::new(quick_config(4)).expect("runner");
        let err = runner
            .run(&ctx(&dir, dir.join("nope.fastq")))
            .expect_err("must fail");
        assert!(err.transient, "i/o failures are retryable: {err:?}");
    }

    #[test]
    fn classification_follows_the_retry_contract() {
        use fc_dist::DistError;
        // Fault-injection losses can succeed on retry.
        assert!(
            classify(FocusError::Dist(DistError::AllRanksDead {
                phase: fc_dist::PhaseId::ErrorRemoval
            }))
            .transient
        );
        assert!(
            classify(FocusError::Stage {
                stage: "traversal",
                message: "boom".to_string()
            })
            .transient
        );
        // Config/validation defects fail identically every attempt and must
        // not burn the retry budget.
        assert!(!classify(FocusError::Dist(DistError::NoRanks)).transient);
        assert!(!classify(FocusError::EmptyInput).transient);
        assert!(!classify(FocusError::Config("bad".to_string())).transient);
        // A blown budget is deterministic — admission control, not the
        // retry loop, owns memory pressure.
        let budget = fc_obs::MemoryBudget::with_limit(1);
        let blown = budget.try_reserve("x", 2).unwrap_err();
        assert!(!classify(FocusError::BudgetExceeded(blown)).transient);
        // Streamed input I/O failures retry like in-core open failures; an
        // input of no known format never reads differently.
        let io = fc_seq::SeqError::from(std::io::Error::other("disk gone"));
        assert!(classify(FocusError::Seq(io)).transient);
        let unknown = fc_seq::SeqError::UnknownExtension;
        assert!(!classify(FocusError::Seq(unknown)).transient);
    }

    #[test]
    fn budgeted_jobs_run_out_of_core_and_match_unbudgeted_output() {
        let dir = temp_dir("ooc");
        let g = genome(2_000, 7);
        let input = write_fastq(&dir, &tiled_reads(&g, 120, 40));
        let plain = AssemblyJobRunner::new(quick_config(4))
            .expect("runner")
            .run(&ctx(&dir, input.clone()))
            .expect("unbudgeted run");

        let mut config = quick_config(4);
        config.memory_budget = Some(1 << 30);
        let ooc_dir = temp_dir("ooc-b");
        let input_b = write_fastq(&ooc_dir, &tiled_reads(&g, 120, 40));
        let budgeted = AssemblyJobRunner::new(config)
            .expect("runner")
            .run(&ctx(&ooc_dir, input_b.clone()))
            .expect("budgeted run");
        assert_eq!(plain.contigs_fasta, budgeted.contigs_fasta);
        assert_eq!(plain.metrics_json, budgeted.metrics_json);
        // The job ran under its budget, and aligned one column at a time.
        assert!(budgeted.trace_json.contains("align.overlap_by_column"));
        assert!(!plain.trace_json.contains("align.overlap_by_column"));

        // Re-running the budgeted job resumes byte-identically too.
        let resumed = AssemblyJobRunner::new(config)
            .expect("runner")
            .run(&ctx(&ooc_dir, input_b))
            .expect("budgeted resume");
        assert_eq!(budgeted.contigs_fasta, resumed.contigs_fasta);
        assert_eq!(budgeted.metrics_json, resumed.metrics_json);

        // A budget the job cannot fit is a permanent, typed failure.
        let mut tiny = quick_config(4);
        tiny.memory_budget = Some(512);
        let err = AssemblyJobRunner::new(tiny)
            .expect("runner")
            .run(&ctx(&dir, dir.join("input.fastq")))
            .expect_err("must exceed budget");
        assert!(!err.transient, "budget errors must not retry: {err:?}");
        assert!(err.message.contains("memory budget"), "{err:?}");
    }
}
