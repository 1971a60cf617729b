//! Property tests for the admission scheduler (ISSUE 6 satellite):
//!
//! 1. **No starvation** — under adversarial interleavings of admissions,
//!    dispatches and cancellations, every job the scheduler ever *queued*
//!    is eventually dispatched, shed, or canceled — never lost — and
//!    during a drain no backlogged tenant waits more than
//!    `tenants × quantum` dispatches between its own dispatches (the
//!    deficit-round-robin fairness bound).
//! 2. **Deterministic backpressure** — replaying the same seeded arrival
//!    schedule on a fresh scheduler reproduces the exact same admission
//!    outcomes and dispatch order, byte for byte.

use fc_rng::{cases, Rng};
use fc_serve::{AdmitOutcome, JobId, Priority, SchedConfig, Scheduler};
use std::collections::BTreeMap;

const TENANTS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

fn cfg() -> SchedConfig {
    SchedConfig {
        per_tenant_capacity: 6,
        total_capacity: 12,
        max_tenants: TENANTS.len(),
        quantum: 3,
    }
}

/// One scripted step: tenant index, priority index, op selector
/// (0–5 admit, 6 dispatch, 7 cancel the oldest queued job).
type Op = (u8, u8, u8);

fn ops(rng: &mut Rng) -> Vec<Op> {
    rng.vec(0..256, |r| {
        (r.range(0u8..4), r.range(0u8..3), r.range(0u8..8))
    })
}

#[test]
fn no_admitted_job_is_ever_lost_and_drain_is_fair() {
    cases(256, |rng| {
        let ops = ops(rng);
        let mut s = Scheduler::new(cfg());
        let mut next_id = 0u64;
        // Jobs admitted and still queued, by id → tenant. The scheduler's
        // queue must always equal this set.
        let mut queued: BTreeMap<u64, &'static str> = BTreeMap::new();
        let (mut admitted, mut dispatched, mut shed, mut canceled) =
            (0usize, 0usize, 0usize, 0usize);

        for (t, p, op) in ops {
            let tenant = TENANTS[t as usize];
            let priority = Priority::ALL[p as usize];
            match op {
                0..=5 => {
                    let id = JobId(next_id);
                    next_id += 1;
                    match s.admit(tenant, id, priority) {
                        AdmitOutcome::Queued { shed: victim } => {
                            admitted += 1;
                            queued.insert(id.0, tenant);
                            if let Some(v) = victim {
                                assert!(
                                    queued.remove(&v.id.0).is_some(),
                                    "shed a job that was not queued: {v:?}"
                                );
                                shed += 1;
                            }
                        }
                        AdmitOutcome::Rejected(_) => {}
                    }
                }
                6 => {
                    if let Some(id) = s.dispatch() {
                        assert!(
                            queued.remove(&id.0).is_some(),
                            "dispatched unknown job {id}"
                        );
                        dispatched += 1;
                    }
                }
                _ => {
                    if let Some((&id, _)) = queued.iter().next() {
                        assert!(s.cancel(JobId(id)).is_some());
                        queued.remove(&id);
                        canceled += 1;
                    }
                }
            }
            assert_eq!(s.total_depth(), queued.len());
        }

        // Drain: every remaining job must dispatch, and while a tenant has
        // backlog it must be served within tenants × quantum dispatches.
        let bound = TENANTS.len() * cfg().quantum as usize;
        let mut waits: BTreeMap<&'static str, usize> = queued.values().map(|&t| (t, 0)).collect();
        while let Some(id) = s.dispatch() {
            let Some(tenant) = queued.remove(&id.0) else {
                panic!("drain dispatched unknown job {id}");
            };
            dispatched += 1;
            waits.insert(tenant, 0);
            for (&t, wait) in waits.iter_mut() {
                if t != tenant && queued.values().any(|&q| q == t) {
                    *wait += 1;
                    assert!(
                        *wait <= bound,
                        "tenant {t} starved for {wait} > {bound} dispatches"
                    );
                }
            }
        }
        assert!(queued.is_empty(), "jobs lost in the scheduler: {queued:?}");
        // Conservation: every queued admission has exactly one fate.
        assert_eq!(admitted, dispatched + shed + canceled);
    });
}

#[test]
fn backpressure_outcomes_are_deterministic() {
    cases(256, |rng| {
        let ops = ops(rng);
        assert_eq!(trace(&ops), trace(&ops));
    });
}

/// Replays a schedule and records every observable outcome.
fn trace(ops: &[Op]) -> Vec<String> {
    let mut s = Scheduler::new(cfg());
    let mut next_id = 0u64;
    let mut queued: BTreeMap<u64, ()> = BTreeMap::new();
    let mut out = Vec::new();
    for &(t, p, op) in ops {
        match op {
            0..=5 => {
                let id = JobId(next_id);
                next_id += 1;
                let outcome = s.admit(TENANTS[t as usize], id, Priority::ALL[p as usize]);
                if let AdmitOutcome::Queued { shed } = &outcome {
                    queued.insert(id.0, ());
                    if let Some(v) = shed {
                        queued.remove(&v.id.0);
                    }
                }
                out.push(format!("admit {id} -> {outcome:?}"));
            }
            6 => {
                let next = s.dispatch();
                if let Some(id) = next {
                    queued.remove(&id.0);
                }
                out.push(format!("next -> {next:?}"));
            }
            _ => {
                if let Some((&id, _)) = queued.iter().next() {
                    let cancel = s.cancel(JobId(id));
                    queued.remove(&id);
                    out.push(format!("cancel {id} -> {cancel:?}"));
                }
            }
        }
    }
    while let Some(id) = s.dispatch() {
        out.push(format!("drain -> {id}"));
    }
    out
}
