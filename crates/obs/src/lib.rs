//! # fc-obs — structured tracing, metrics and profiling for the pipeline
//!
//! The paper's evaluation (§V–§VI) is entirely about *measuring* the
//! pipeline — edge cut, balance, phase speedups, recovery cost. This crate
//! is the instrumentation substrate those measurements flow through: a
//! [`Recorder`] handle that collects **spans** (nested, phase/task scoped),
//! **counters**, **gauges** and fixed-bucket **histograms**, and exports
//! them through three sinks:
//!
//! * a human-readable end-of-run report ([`human_report`]),
//! * JSON-lines events ([`write_jsonl`]),
//! * Chrome `trace_event` JSON ([`write_chrome_trace`]) viewable in
//!   Perfetto (`ui.perfetto.dev`).
//!
//! The crate has **zero dependencies** (JSON is hand-written and
//! hand-parsed) so every other crate in the workspace can depend on it
//! without widening the build graph.
//!
//! ## Cost model
//!
//! A disabled recorder ([`Recorder::disabled`], the default everywhere) is
//! a `None` inside a struct: every record call is one branch and returns.
//! Hot loops are never instrumented per item — the pipeline records
//! *aggregates* (one `PairStats`-shaped bundle per alignment task, one
//! observation per coarsening level, …), so the enabled path costs a mutex
//! acquisition per task, not per k-mer.
//!
//! ## Determinism contract
//!
//! The deterministic parallel engine (`fc-exec`) guarantees bit-identical
//! *results* at any thread count, so every metric derived from algorithm
//! results (candidates verified, edges cut, nodes coarsened, messages
//! simulated …) is thread-count-invariant. Metrics that describe the
//! *schedule* itself (dispatches, per-worker busy time, scratch creations) are
//! not — they live under the reserved `sched.` name prefix, beside the
//! two other classes no result depends on (`ckpt.`, `mem.`; see
//! [`MetricsSnapshot::logical`]). In logical-clock mode
//! ([`ObsOptions::logical`]) the snapshot serialisation
//! ([`Recorder::snapshot_json`]) keeps only the logical metrics and
//! timestamps are logical ticks, making the metrics snapshot
//! **byte-identical across thread counts** — observability doubles as a correctness oracle
//! (asserted at every point of the contract matrix, `tests/common/matrix.rs`).

#![forbid(unsafe_code)]

pub mod budget;
pub mod event;
pub mod json;
pub mod mem;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod schema;
pub mod sink;
pub mod sync;

pub use budget::{BudgetError, MemoryBudget, Reservation};
pub use event::{Event, EventKind};
pub use mem::peak_rss_bytes;
pub use metrics::{Histogram, MetricsSnapshot, DEFAULT_BOUNDS};
pub use profile::{profile_chrome_trace, ProfileReport, SegmentKind};
pub use recorder::{Flow, ObsOptions, Recorder, SpanGuard};
pub use schema::{check_chrome_trace, check_jsonl_events, check_metrics_snapshot, ObsError};
pub use sink::{human_report, write_chrome_trace, write_jsonl};
