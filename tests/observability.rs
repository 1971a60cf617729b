//! End-to-end observability tests: causal profiles of faulted and
//! wall-clock runs, sink validity against the pure-std schema checkers,
//! and the disabled-recorder null guarantee; and the contract matrix's
//! `assemble` points under the `FaultPlan` (`tests/common/matrix.rs`),
//! whose logical snapshots are byte-identical at any thread count.

mod common;

use common::matrix::{fixture, run_slice, Slice};
use common::{contract_config, tiled_reads};
use fc_rng::cases;
use focus_assembler::focus::{FaultInjection, FocusAssembler, FocusConfig};
use focus_assembler::obs::{
    check_chrome_trace, check_jsonl_events, check_metrics_snapshot, human_report,
    profile_chrome_trace, write_chrome_trace, write_jsonl, ObsOptions, ProfileReport, SegmentKind,
};
use focus_assembler::seq::Read;

fn obs_config(threads: usize) -> FocusConfig {
    contract_config(threads, false)
}

/// The contract's rank crashes and message drops under fault seed `seed`,
/// so the trace contains retransmissions, speculative backups and recovery
/// flows.
fn faulted_config(threads: usize, seed: u64) -> FocusConfig {
    let mut c = contract_config(threads, true);
    c.fault = c.fault.map(|f| FaultInjection { seed, ..f });
    c
}

/// Assembles under a FaultPlan and returns the causal Chrome trace, or
/// `None` when the schedule killed the whole cluster (retry budgets are
/// finite, so hostile seeds can legitimately fail the run).
fn faulted_trace(reads: &[Read], threads: usize, seed: u64) -> Option<String> {
    let assembler = FocusAssembler::new(faulted_config(threads, seed)).unwrap();
    assembler.assemble(reads).ok()?;
    Some(write_chrome_trace(&assembler.recorder().events()))
}

/// The causality invariants every reconstructed profile must satisfy.
/// `profile_chrome_trace` succeeding already proves the span DAG is
/// acyclic and every causal edge references an emitted flow origin.
fn assert_causality_invariants(report: &ProfileReport) {
    // Critical-path segments are chronological and pairwise disjoint.
    for pair in report.critical_path.windows(2) {
        assert!(
            pair[0].end <= pair[1].start,
            "overlapping segments: {pair:?}"
        );
    }
    // The gating chain can never exceed the run's wall clock...
    let total = report.critical_path_total();
    assert!(
        total <= report.run_wall,
        "critical path {total} > run wall {}",
        report.run_wall
    );
    // ...and must cover at least the longest single top-level phase (the
    // pipeline runs its two root spans back to back).
    let longest_phase = ["pipeline.prepare", "pipeline.assemble"]
        .iter()
        .filter_map(|name| report.by_name.get(*name))
        .map(|agg| agg.total)
        .max()
        .unwrap_or(0);
    assert!(
        longest_phase > 0,
        "trace is missing the pipeline root spans"
    );
    assert!(
        total >= longest_phase,
        "critical path {total} < longest phase {longest_phase}"
    );
    // Attribution buckets partition the critical path exactly.
    let attributed: u64 = [SegmentKind::Compute, SegmentKind::Wait, SegmentKind::Retry]
        .iter()
        .map(|k| report.attributed(*k))
        .sum();
    assert_eq!(attributed, total, "attribution must cover the whole path");
    assert!(report.attributed(SegmentKind::Compute) > 0);
}

#[test]
fn faulted_runs_profile_cleanly_at_every_thread_count() {
    let reads = tiled_reads(1800, 11);
    for threads in [1usize, 2, 4, 8] {
        let trace = faulted_trace(&reads, threads, 42).expect("seed 42 completes");
        let report =
            profile_chrome_trace(&trace).unwrap_or_else(|e| panic!("{threads} threads: {e}"));
        assert!(report.flows > 0, "faulted run must emit causal edges");
        assert_causality_invariants(&report);
        // The machine report is byte-stable across reruns of the same trace.
        let again = profile_chrome_trace(&trace).unwrap();
        assert_eq!(report.to_json(), again.to_json());
    }
}

#[test]
fn wall_clock_traces_profile_to_a_full_depth_critical_path() {
    // The CLI records real time, where a flow's departure and arrival can
    // collapse into one microsecond; the profiler must still walk the
    // whole run, not stall on the same-timestamp causal edges.
    let reads = tiled_reads(1800, 11);
    let mut config = obs_config(4);
    config.observability = ObsOptions::wall_clock();
    let assembler = FocusAssembler::new(config).unwrap();
    assembler.assemble(&reads).unwrap();
    let trace = write_chrome_trace(&assembler.recorder().events());
    let report = profile_chrome_trace(&trace).expect("profiles");
    assert_causality_invariants(&report);
}

#[test]
fn all_three_sinks_validate_against_the_schema_checkers() {
    let reads = tiled_reads(2000, 3);
    let assembler = FocusAssembler::new(obs_config(2)).unwrap();
    assembler.assemble(&reads).unwrap();
    let rec = assembler.recorder();

    let events = rec.events();
    assert!(!events.is_empty());
    let n = check_jsonl_events(&write_jsonl(&events)).unwrap();
    assert_eq!(n, events.len());
    let n = check_chrome_trace(&write_chrome_trace(&events)).unwrap();
    assert_eq!(n, events.len());
    check_metrics_snapshot(&rec.snapshot_json()).unwrap();

    let report = human_report(&rec.snapshot());
    assert!(report.contains("counters"));
    assert!(report.contains("align.candidates"));
}

/// The pipeline samples the process's peak resident set (`VmHWM`) as it
/// runs: a wall-clock run publishes `mem.peak_rss_bytes`, and the logical
/// snapshot, which must not depend on the allocator, leaves it out.
#[cfg(target_os = "linux")]
#[test]
fn wall_clock_assemble_samples_peak_rss_outside_the_logical_snapshot() {
    let reads = tiled_reads(1800, 7);
    let mut config = obs_config(2);
    config.observability = ObsOptions::wall_clock();
    let assembler = FocusAssembler::new(config).unwrap();
    assembler.assemble(&reads).unwrap();
    let peak = assembler
        .recorder()
        .snapshot()
        .gauges
        .get("mem.peak_rss_bytes")
        .copied();
    assert!(peak.is_some_and(|bytes| bytes > 0), "{peak:?}");

    let logical = FocusAssembler::new(obs_config(2)).unwrap();
    logical.assemble(&reads).unwrap();
    assert!(logical
        .recorder()
        .snapshot()
        .gauges
        .contains_key("mem.peak_rss_bytes"));
    assert!(!logical
        .recorder()
        .snapshot_json()
        .contains("mem.peak_rss_bytes"));
}

/// With logical-clock observability, `assemble` at 1, 2, 4 and 8 threads
/// under the `FaultPlan` — retransmissions, backups and recovery included —
/// produces the serial run's metrics snapshot byte for byte; scheduling
/// metrics never leak into it.
#[test]
fn metric_snapshots_are_byte_identical_across_thread_counts() {
    let baseline = &fixture().faulted.snapshot;
    assert!(baseline.contains("\"schema\": \"focus-metrics-v1\""));
    assert!(!baseline.contains("sched."));
    run_slice(Slice::Metrics);
}

#[test]
fn disabled_recorder_produces_empty_everything() {
    let reads = tiled_reads(1500, 5);
    let mut config = obs_config(2);
    config.observability = ObsOptions::default();
    let assembler = FocusAssembler::new(config).unwrap();
    assembler.assemble(&reads).unwrap();
    assert!(assembler.recorder().events().is_empty());
    assert!(assembler.recorder().snapshot().is_empty());
}

/// Causality invariants hold for arbitrary fault schedules: the span
/// DAG reconstructs acyclically, the critical path stays within the
/// run wall and above the longest phase, and the machine report is
/// byte-stable — at every thread count.
#[test]
fn causal_profiles_are_sound_under_arbitrary_fault_seeds() {
    cases(3, |rng| {
        let (genome_seed, fault_seed) = (rng.range(1u64..1000), rng.next_u64());
        let reads = tiled_reads(1800, genome_seed);
        for threads in [1usize, 2, 4, 8] {
            let Some(trace) = faulted_trace(&reads, threads, fault_seed) else {
                // Hostile schedule killed the cluster; nothing to profile.
                continue;
            };
            let report = match profile_chrome_trace(&trace) {
                Ok(r) => r,
                Err(e) => panic!("{threads} threads: {e}"),
            };
            assert_causality_invariants(&report);
            assert_eq!(
                profile_chrome_trace(&trace).unwrap().to_json(),
                report.to_json()
            );
        }
    });
}
