//! # fc-serve — assembly-as-a-service on the Focus pipeline
//!
//! A pure-std HTTP/1.1 daemon that accepts FASTQ assembly jobs and runs a
//! bounded number of them concurrently, lifting the single-run fault
//! tolerance of fc-ckpt to the serving layer where overload, tenant
//! contention and process death are the normal case (DESIGN.md §12):
//!
//! * **Admission control & fairness** — every queue in the system is
//!   bounded; a full queue produces a *typed* rejection (HTTP 429 with a
//!   machine-readable reason), never unbounded memory growth. Dispatch
//!   order is deficit-round-robin across tenants ([`sched::Scheduler`]),
//!   so one noisy tenant cannot starve the others.
//! * **Load shedding** — at global capacity a higher-priority arrival
//!   displaces the newest lowest-priority queued job, which terminates
//!   with an explicit `shed` status instead of silently vanishing.
//! * **Durability** — a job is acknowledged only after its input bytes
//!   and metadata are fsync'd ([`state::StateDir`]); every run checkpoints
//!   through fc-ckpt under a per-job directory. A
//!   `kill -9`'d server restarted on the same state directory re-admits
//!   every unfinished job and resumes it from its last checkpoint,
//!   producing byte-identical contigs and logical-clock metrics
//!   (`tests/serve_chaos.rs` at the workspace root kill-loops the real
//!   process to prove it).
//! * **Retry with capped backoff** — transient job failures are retried
//!   under fc-dist's [`RetryPolicy`](fc_dist::RetryPolicy)
//!   (`min(base × 2^(attempt-1), cap)`), the same policy that governs the
//!   simulated cluster's retransmissions.
//! * **Observability** — admission/rejection/shed counters, per-tenant
//!   queue-depth gauges and job latency histograms are recorded on an
//!   fc-obs [`Recorder`](fc_obs::Recorder) and exposed on `/metrics`.
//!
//! The crate is deliberately ignorant of the assembly pipeline: jobs are
//! executed through the [`runner::JobRunner`] trait, implemented over the
//! real pipeline by `focus_core::serve::AssemblyJobRunner` and by mock
//! runners in tests.

#![forbid(unsafe_code)]

pub mod error;
pub mod http;
pub mod job;
pub mod metrics;
pub mod runner;
pub mod sched;
pub mod server;
pub mod state;

pub use error::ServeError;
pub use job::{JobId, Priority};
pub use runner::{JobContext, JobError, JobOutput, JobRunner};
pub use sched::{AdmitOutcome, Rejection, SchedConfig, Scheduler};
pub use server::{Serve, ServeConfig};
pub use state::{input_fnv, JobRecord, StateDir, TerminalState, TerminalStatus};
