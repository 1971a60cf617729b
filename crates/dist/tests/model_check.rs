//! Exhaustive model check of the master/worker gather-and-recover protocol.
//!
//! The distributed runtime is a deterministic simulation (DESIGN.md §2), so
//! the protocol's only nondeterminism is the fault schedule: which ranks
//! crash, which messages drop, which links stall. This test enumerates the
//! **full cross-product** of per-rank fault behaviours — a bounded model
//! check in the loom style, where every schedule in the bounded space is
//! executed rather than sampled — and asserts the protocol's safety
//! contract on every one:
//!
//! 1. **Exactly-once, in-order gather** — an `Ok` outcome carries exactly
//!    one result per partition, equal to the pure scan's output; recovery
//!    re-execution is invisible to the master.
//! 2. **No false aliveness** — `Err(AllRanksDead)` is returned iff every
//!    rank has been lost; the protocol never claims success with results
//!    missing and never gives up while a survivor remains.
//! 3. **Determinism** — identical `(plan, policy)` re-runs are
//!    bit-identical, fault report included.
//! 4. **Virtual-time monotonicity** — the cluster clock never runs
//!    backwards across a phase.
//!
//! The tier-1 space uses 3 ranks and one phase (6³ = 216 schedules). The CI
//! `model-check-deep` job builds with `RUSTFLAGS="--cfg loom"`, widening to
//! 4 ranks across all four pipeline phases (4 × 6⁴ = 5184 schedules).

use fc_dist::cluster::{CostModel, SimCluster};
use fc_dist::fault::{FaultEvent, FaultKind, FaultPlan, FaultReport, PhaseId};
use fc_dist::recovery::execute_phase;
use fc_dist::DistError;
use fc_exec::Pool;
use fc_obs::Recorder;

#[cfg(not(loom))]
const RANKS: usize = 3;
#[cfg(loom)]
const RANKS: usize = 4;

#[cfg(not(loom))]
const PHASES: &[PhaseId] = &[PhaseId::Traversal];
#[cfg(loom)]
const PHASES: &[PhaseId] = &PhaseId::ALL;

/// One more partition than ranks, so the round-robin adoption path (a
/// partition whose owner never existed) is exercised by every schedule.
const PARTITIONS: usize = RANKS + 1;

/// The per-rank behaviour alphabet. `MessageDrop { 64 }` exhausts the
/// default retry budget, so the master presumes the sender dead — the
/// "silent failure" case, distinct from an injected crash.
fn behaviours() -> Vec<Option<FaultKind>> {
    vec![
        None,
        Some(FaultKind::Crash),
        Some(FaultKind::MessageDrop { count: 1 }),
        Some(FaultKind::MessageDrop { count: 64 }),
        Some(FaultKind::MessageDelay { factor: 4.0 }),
        Some(FaultKind::Straggle { factor: 8.0 }),
    ]
}

/// The pure worker scan the protocol gathers: any deterministic function of
/// the partition id works; a vector payload also exercises message sizing.
fn expected(p: usize) -> Vec<u64> {
    (0..=p as u64).map(|i| i * 31 + p as u64).collect()
}

struct RunOutcome {
    result: Result<Vec<Vec<u64>>, DistError>,
    makespan: f64,
    report: FaultReport,
}

fn run_schedule(phase: PhaseId, plan: &FaultPlan) -> RunOutcome {
    run_schedule_pooled(phase, plan, &Pool::serial())
}

fn run_schedule_pooled(phase: PhaseId, plan: &FaultPlan, pool: &Pool) -> RunOutcome {
    let mut cluster = SimCluster::with_faults(RANKS, CostModel::default(), plan.clone()).unwrap();
    let before = cluster.now();
    let out = execute_phase(
        &mut cluster,
        pool,
        phase,
        PARTITIONS,
        |p, work| {
            *work += 5 * (p as u64 + 1);
            expected(p)
        },
        |r| 8 * r.len() as u64,
        &Recorder::disabled(),
    );
    let after = cluster.now();
    assert!(
        after >= before,
        "virtual clock ran backwards: {after} < {before}"
    );
    let alive = cluster.alive_ranks();
    let result = match out {
        Ok(exec) => {
            assert!(
                !alive.is_empty(),
                "protocol returned Ok with every rank dead (plan {:?})",
                plan.events()
            );
            assert_eq!(exec.results.len(), PARTITIONS, "plan {:?}", plan.events());
            for (p, r) in exec.results.iter().enumerate() {
                assert_eq!(
                    *r,
                    expected(p),
                    "partition {p} result corrupted, plan {:?}",
                    plan.events()
                );
            }
            Ok(exec.results)
        }
        Err(e) => {
            assert!(
                matches!(e, DistError::AllRanksDead { .. }),
                "unexpected failure mode {e:?} (plan {:?})",
                plan.events()
            );
            assert!(
                alive.is_empty(),
                "protocol gave up with survivors {alive:?} left (plan {:?})",
                plan.events()
            );
            Err(e)
        }
    };
    RunOutcome {
        result,
        makespan: after,
        report: cluster.fault_report().clone(),
    }
}

/// Enumerates every assignment of one behaviour per rank for `phase`.
fn all_schedules(phase: PhaseId) -> Vec<FaultPlan> {
    let alphabet = behaviours();
    let mut plans = Vec::new();
    let mut digits = vec![0usize; RANKS];
    loop {
        let events: Vec<FaultEvent> = digits
            .iter()
            .enumerate()
            .filter_map(|(rank, &d)| alphabet[d].map(|kind| FaultEvent { phase, rank, kind }))
            .collect();
        plans.push(FaultPlan::new(events));
        // Increment the mixed-radix counter; done on overflow.
        let mut pos = 0;
        loop {
            if pos == RANKS {
                return plans;
            }
            digits[pos] += 1;
            if digits[pos] < alphabet.len() {
                break;
            }
            digits[pos] = 0;
            pos += 1;
        }
    }
}

#[test]
fn every_bounded_schedule_upholds_the_protocol_contract() {
    let mut checked = 0usize;
    let mut survived = 0usize;
    let mut lost = 0usize;
    for &phase in PHASES {
        for plan in all_schedules(phase) {
            let outcome = run_schedule(phase, &plan);
            match outcome.result {
                Ok(_) => survived += 1,
                Err(_) => lost += 1,
            }
            checked += 1;
        }
    }
    let expected_total = PHASES.len() * behaviours().len().pow(RANKS as u32);
    assert_eq!(
        checked, expected_total,
        "schedule space not fully enumerated"
    );
    // The all-crash schedule exists in the space, so both outcomes occur.
    assert!(
        survived > 0 && lost > 0,
        "space too small to be meaningful: {survived}/{lost}"
    );
}

#[test]
fn identical_schedules_replay_bit_identically() {
    for &phase in PHASES {
        // A representative hard schedule: crash, exhausted drops, delay on
        // three ranks (the fourth, if present, stays healthy).
        let mut events = vec![
            FaultEvent {
                phase,
                rank: 0,
                kind: FaultKind::Crash,
            },
            FaultEvent {
                phase,
                rank: 1,
                kind: FaultKind::MessageDrop { count: 64 },
            },
            FaultEvent {
                phase,
                rank: 2,
                kind: FaultKind::MessageDelay { factor: 4.0 },
            },
        ];
        events.truncate(RANKS.saturating_sub(1).max(1));
        let plan = FaultPlan::new(events);
        let a = run_schedule(phase, &plan);
        let b = run_schedule(phase, &plan);
        match (&a.result, &b.result) {
            (Ok(ra), Ok(rb)) => assert_eq!(ra, rb),
            (Err(ea), Err(eb)) => assert_eq!(ea, eb),
            _ => panic!("replays diverged in outcome kind"),
        }
        assert_eq!(a.makespan, b.makespan, "virtual makespan not reproducible");
        assert_eq!(a.report, b.report, "fault report not reproducible");
    }
}

#[test]
fn pooled_worker_schedules_replay_bit_identically_to_serial() {
    // The initial scan fan-out may run on the fc-exec worker pool; fault
    // charging and recovery stay on the master's serial schedule, so every
    // schedule in the bounded space — crashes, drops, delays, stragglers —
    // must replay bit-identically (results, virtual makespan, and fault
    // report) at any thread count.
    let pool = Pool::new(4);
    for &phase in PHASES {
        for plan in all_schedules(phase) {
            let serial = run_schedule(phase, &plan);
            let pooled = run_schedule_pooled(phase, &plan, &pool);
            match (&serial.result, &pooled.result) {
                (Ok(ra), Ok(rb)) => assert_eq!(ra, rb, "plan {:?}", plan.events()),
                (Err(ea), Err(eb)) => assert_eq!(ea, eb, "plan {:?}", plan.events()),
                _ => panic!(
                    "pooled replay diverged in outcome kind (plan {:?})",
                    plan.events()
                ),
            }
            assert_eq!(
                serial.makespan,
                pooled.makespan,
                "virtual makespan changed under pooled workers (plan {:?})",
                plan.events()
            );
            assert_eq!(
                serial.report,
                pooled.report,
                "fault report changed under pooled workers (plan {:?})",
                plan.events()
            );
        }
    }
}

#[test]
fn fault_free_schedule_is_the_baseline() {
    for &phase in PHASES {
        let outcome = run_schedule(phase, &FaultPlan::none());
        let results = outcome.result.expect("fault-free run cannot fail");
        assert_eq!(results.len(), PARTITIONS);
        assert_eq!(outcome.report.crashes, 0);
        assert_eq!(outcome.report.recovery_time, 0.0);
    }
}

#[test]
fn faulty_schedules_never_change_gathered_results() {
    // Results under every surviving schedule must be bit-identical to the
    // fault-free gather — faults may cost time, never data.
    for &phase in PHASES {
        let baseline = run_schedule(phase, &FaultPlan::none())
            .result
            .expect("fault-free run cannot fail");
        for plan in all_schedules(phase) {
            if let Ok(results) = run_schedule(phase, &plan).result {
                assert_eq!(results, baseline, "plan {:?} corrupted data", plan.events());
            }
        }
    }
}
