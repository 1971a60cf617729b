//! Job execution abstraction and retry-with-capped-backoff.
//!
//! fc-serve never touches the assembly pipeline directly: a worker hands a
//! [`JobContext`] (paths + cancellation flag) to a [`JobRunner`], and the
//! production implementation (`focus_core::serve::AssemblyJobRunner`) runs
//! `assemble_fastq` under the job's checkpoint directory. Tests
//! plug in mock runners to exercise retries, cancellation and crashes
//! without assembling anything.
//!
//! Transient failures ([`JobError::transient`]) are retried under
//! fc-dist's [`RetryPolicy`] — the same exponential `min(base × 2^(n-1),
//! cap)` schedule the simulated cluster uses for message retransmission —
//! scaled by a configurable unit so tests can run it at zero delay.

use crate::job::JobId;
use fc_dist::RetryPolicy;
use fc_obs::Recorder;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Everything a runner needs to execute one job.
#[derive(Debug, Clone)]
pub struct JobContext {
    /// The job being run.
    pub id: JobId,
    /// Owning tenant (for tracing only; isolation happens in the server).
    pub tenant: String,
    /// Path of the submitted FASTQ bytes.
    pub input_path: PathBuf,
    /// Per-job fc-ckpt directory; the runner must checkpoint into it and
    /// resume from it so crashed runs continue instead of restarting.
    pub ckpt_dir: PathBuf,
    /// Worker threads the job may use.
    pub threads: usize,
    /// Cooperative cancellation: set by the server on DELETE or shutdown.
    /// Runners should poll it at phase boundaries and abort early.
    pub cancel: Arc<AtomicBool>,
}

impl JobContext {
    /// Whether cancellation was requested.
    pub fn canceled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }
}

/// A successful assembly, ready to persist.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// Rendered FASTA bytes (same format as the `focus assemble` CLI).
    pub contigs_fasta: Vec<u8>,
    /// Logical-clock metrics snapshot (byte-stable across crash/resume).
    pub metrics_json: String,
    /// Chrome `trace_event` JSON of the run's causal span/flow graph,
    /// tagged with the job and tenant; empty when the runner records no
    /// trace (the server then answers `GET /jobs/{id}/trace` with 409).
    pub trace_json: String,
    /// Contig count.
    pub num_contigs: u64,
    /// N50 of the contigs.
    pub n50: u64,
    /// Total assembled bases.
    pub total_bases: u64,
}

/// A failed attempt. `transient` failures are retried under the policy;
/// permanent ones (bad input, invalid config) fail the job immediately.
#[derive(Debug, Clone)]
pub struct JobError {
    /// Whether another attempt could plausibly succeed.
    pub transient: bool,
    /// What went wrong.
    pub message: String,
}

impl JobError {
    /// A permanent failure.
    pub fn permanent(message: impl Into<String>) -> Self {
        JobError {
            transient: false,
            message: message.into(),
        }
    }

    /// A transient failure, eligible for retry.
    pub fn transient(message: impl Into<String>) -> Self {
        JobError {
            transient: true,
            message: message.into(),
        }
    }
}

/// Executes one assembly job.
pub trait JobRunner: Send + Sync + 'static {
    /// Runs (or resumes) the job described by `ctx`.
    fn run(&self, ctx: &JobContext) -> Result<JobOutput, JobError>;
}

/// Outcome of [`run_with_retry`].
#[derive(Debug)]
pub enum RunResult {
    /// An attempt succeeded.
    Completed(JobOutput),
    /// Cancellation was observed between attempts (a runner may also
    /// surface mid-attempt cancellation as a permanent error).
    Canceled,
    /// All attempts failed (or the failure was permanent).
    Failed {
        /// Attempts actually made.
        attempts: u32,
        /// Message of the last failure.
        message: String,
    },
}

/// Runs a job under `policy`: up to `max_attempts` tries, sleeping
/// `backoff_delay(n) × backoff_unit` between transient failures, checking
/// the cancellation flag before every attempt and during backoff sleeps.
/// Each retry increments `serve.jobs.retried` on `recorder`.
pub fn run_with_retry(
    runner: &dyn JobRunner,
    ctx: &JobContext,
    policy: &RetryPolicy,
    backoff_unit: Duration,
    recorder: &Recorder,
) -> RunResult {
    let max_attempts = policy.max_attempts.max(1);
    let mut attempt = 1;
    loop {
        if ctx.canceled() {
            return RunResult::Canceled;
        }
        match runner.run(ctx) {
            Ok(output) => return RunResult::Completed(output),
            Err(e) if e.transient && attempt < max_attempts => {
                recorder.add("serve.jobs.retried", 1);
                let units = policy.backoff_delay(attempt);
                let delay = backoff_unit.mul_f64(units.max(0.0));
                if !sleep_unless_canceled(ctx, delay) {
                    return RunResult::Canceled;
                }
                attempt += 1;
            }
            Err(e) => {
                return RunResult::Failed {
                    attempts: attempt,
                    message: e.message,
                };
            }
        }
    }
}

/// Sleeps for `total`, waking every 10 ms to poll cancellation. Returns
/// `false` if cancellation was observed.
fn sleep_unless_canceled(ctx: &JobContext, total: Duration) -> bool {
    let slice = Duration::from_millis(10);
    let mut remaining = total;
    while remaining > Duration::ZERO {
        if ctx.canceled() {
            return false;
        }
        let step = remaining.min(slice);
        std::thread::sleep(step);
        remaining = remaining.saturating_sub(step);
    }
    !ctx.canceled()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_obs::ObsOptions;
    use std::sync::atomic::AtomicU32;

    struct FlakyRunner {
        fail_first: u32,
        transient: bool,
        calls: AtomicU32,
    }

    impl JobRunner for FlakyRunner {
        fn run(&self, _ctx: &JobContext) -> Result<JobOutput, JobError> {
            let call = self.calls.fetch_add(1, Ordering::SeqCst);
            if call < self.fail_first {
                return Err(JobError {
                    transient: self.transient,
                    message: format!("attempt {} failed", call + 1),
                });
            }
            Ok(JobOutput {
                contigs_fasta: b">c\nACGT\n".to_vec(),
                metrics_json: "{}".to_string(),
                trace_json: String::new(),
                num_contigs: 1,
                n50: 4,
                total_bases: 4,
            })
        }
    }

    fn ctx() -> JobContext {
        JobContext {
            id: JobId(1),
            tenant: "t".to_string(),
            input_path: PathBuf::from("/dev/null"),
            ckpt_dir: PathBuf::from("/tmp"),
            threads: 1,
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    fn policy(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn transient_failures_retry_to_success() {
        let runner = FlakyRunner {
            fail_first: 2,
            transient: true,
            calls: AtomicU32::new(0),
        };
        let rec = Recorder::new(ObsOptions::logical());
        let result = run_with_retry(&runner, &ctx(), &policy(4), Duration::ZERO, &rec);
        assert!(matches!(result, RunResult::Completed(_)), "{result:?}");
        assert_eq!(runner.calls.load(Ordering::SeqCst), 3);
        assert_eq!(
            rec.snapshot().counters.get("serve.jobs.retried").copied(),
            Some(2)
        );
    }

    #[test]
    fn permanent_failure_does_not_retry() {
        let runner = FlakyRunner {
            fail_first: 10,
            transient: false,
            calls: AtomicU32::new(0),
        };
        let rec = Recorder::new(ObsOptions::logical());
        let result = run_with_retry(&runner, &ctx(), &policy(4), Duration::ZERO, &rec);
        match result {
            RunResult::Failed { attempts, message } => {
                assert_eq!(attempts, 1);
                assert!(message.contains("attempt 1"), "{message}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(runner.calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn retries_are_capped_by_max_attempts() {
        let runner = FlakyRunner {
            fail_first: 10,
            transient: true,
            calls: AtomicU32::new(0),
        };
        let rec = Recorder::new(ObsOptions::logical());
        let result = run_with_retry(&runner, &ctx(), &policy(3), Duration::ZERO, &rec);
        assert!(
            matches!(result, RunResult::Failed { attempts: 3, .. }),
            "{result:?}"
        );
        assert_eq!(runner.calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn cancellation_preempts_the_first_attempt() {
        let runner = FlakyRunner {
            fail_first: 0,
            transient: true,
            calls: AtomicU32::new(0),
        };
        let rec = Recorder::new(ObsOptions::logical());
        let c = ctx();
        c.cancel.store(true, Ordering::Relaxed);
        let result = run_with_retry(&runner, &c, &policy(4), Duration::ZERO, &rec);
        assert!(matches!(result, RunResult::Canceled), "{result:?}");
        assert_eq!(runner.calls.load(Ordering::SeqCst), 0, "never invoked");
    }
}
