//! Phase-level recovery for the distributed pipeline.
//!
//! The master/worker design records worker results and lets the master apply
//! them, and every worker scan is a **pure function** over
//! `(&graph, partition nodes)`. That property makes recovery cheap: when a
//! rank dies mid-phase (or its result transmissions are exhausted), the
//! master simply reassigns the dead rank's partition to a surviving rank and
//! *re-invokes* the scan — no checkpointing, no state transfer. Re-running
//! the identical scan over the identical inputs reproduces the lost records
//! exactly, which is why a run with any single-rank crash yields the same
//! final path cover as the fault-free run.
//!
//! [`execute_phase`] is the generic engine used by the driver for all four
//! pipeline phases: it assigns partitions to live ranks, runs the scans
//! under the cluster's [`FaultPlan`](crate::fault::FaultPlan), gathers
//! results with retry/backoff, detects losses via the cost-model-derived
//! phase timeout, and re-executes lost scans on survivors until every
//! partition's result reached the master (or nobody is left).

use crate::cluster::{PhaseTiming, SendOutcome, SimCluster};
use crate::error::DistError;
use crate::fault::{self, PhaseId};
use fc_exec::Pool;
use fc_obs::{Flow, Recorder};

/// Total transmission attempts behind a [`SendOutcome`], delivered or not.
fn attempts_of(outcome: &SendOutcome) -> i64 {
    match outcome {
        SendOutcome::Delivered { attempts } => *attempts as i64,
        SendOutcome::Lost => fault::MAX_ATTEMPTS as i64,
    }
}

/// Outcome of one recovered phase: every partition's result (in partition
/// order, so master-side application is order-identical to a fault-free
/// run) plus the compute timing.
#[derive(Debug, Clone)]
pub struct PhaseExecution<T> {
    /// Per-partition worker results, index = partition id.
    pub results: Vec<T>,
    /// Timing of the phase's compute portion.
    pub timing: PhaseTiming,
}

/// Runs one parallel phase with fault handling and recovery.
///
/// `scan(p, &mut work)` runs partition `p`'s worker scan and must be pure
/// over the current graph state; `payload_of` sizes the result message.
/// Partitions owned by already-dead ranks are adopted round-robin by the
/// survivors. Returns [`DistError::AllRanksDead`] when every rank is lost
/// before all results reach the master.
///
/// The initial fan-out runs the scans on `pool` — the same purity that
/// makes recovery free of checkpoints makes the scans trivially
/// parallelizable, and results are stored per partition id so the master
/// applies them in partition order regardless of completion order. Fault
/// charging and recovery re-invocations stay on the master's serial
/// schedule, so a [`FaultPlan`](crate::fault::FaultPlan) replays
/// bit-identically at any thread count.
///
/// Recovery metrics are recorded into `rec`: one `dist.recovery_rescans`
/// increment per re-executed scan, the adopted partition count
/// (`dist.adopted_partitions`), and the pool's execution metrics for the
/// initial fan-out.
#[allow(clippy::too_many_arguments)]
pub fn execute_phase<T: Send>(
    cluster: &mut SimCluster,
    pool: &Pool,
    phase: PhaseId,
    partitions: usize,
    scan: impl Fn(usize, &mut u64) -> T + Sync,
    payload_of: impl Fn(&T) -> u64,
    rec: &Recorder,
) -> Result<PhaseExecution<T>, DistError> {
    // Assign every partition an executor: its own rank when alive, else a
    // survivor chosen round-robin (deterministic in rank order).
    let adopters = cluster.alive_ranks();
    if adopters.is_empty() {
        return Err(DistError::AllRanksDead { phase });
    }
    let executor: Vec<usize> = (0..partitions)
        .map(|p| {
            if p < cluster.ranks() && cluster.is_alive(p) {
                p
            } else {
                adopters[p % adopters.len()]
            }
        })
        .collect();
    if rec.is_enabled() {
        let adopted = executor
            .iter()
            .enumerate()
            .filter(|&(p, &e)| p != e)
            .count();
        rec.add("dist.adopted_partitions", adopted as u64);
    }

    // Worker scans (the real algorithm), with per-partition work counters.
    let mut results: Vec<Option<T>> = Vec::with_capacity(partitions);
    let mut works = Vec::with_capacity(partitions);
    for (result, w) in pool.map_obs(partitions, rec, |p| {
        let mut w = 0;
        (scan(p, &mut w), w)
    }) {
        results.push(Some(result));
        works.push(w);
    }

    // Charge the compute under the fault plan.
    cluster.barrier();
    let phase_start = cluster.now();
    let tasks: Vec<(usize, u64)> = executor
        .iter()
        .copied()
        .zip(works.iter().copied())
        .collect();
    let outcome = cluster.run_phase_faulty(phase, &tasks);
    for &i in &outcome.lost {
        results[i] = None; // died with the rank's memory
    }
    // Causal markers for the fault events the phase absorbed: crashes and
    // speculative backups are instants inside the phase span, so Perfetto
    // shows *where* in the phase each one landed.
    for &r in &outcome.crashed {
        rec.instant("dist", "dist.rank_crash", &[("rank", r as i64)]);
    }
    for &r in &outcome.speculated {
        rec.instant("dist", "dist.speculative_backup", &[("rank", r as i64)]);
    }

    // Gather surviving results to the master, with retransmission. A sender
    // whose retries are exhausted is presumed dead; everything it still
    // held is scheduled for recovery. Each partition's journey to the
    // master is one causal flow: started at the send, stepped on a
    // reroute, ended on delivery — Perfetto draws the arrow, and the
    // profiler attributes retransmission windows to retry time.
    let mut gather_flows: Vec<Flow> = vec![Flow::NONE; partitions];
    for p in 0..partitions {
        let Some(result) = results[p].as_ref() else {
            continue;
        };
        let payload = payload_of(result);
        let sender = executor[p];
        if !cluster.is_alive(sender) {
            results[p] = None;
            continue;
        }
        let flow = rec.flow_start(
            "dist",
            "dist.gather",
            &[("partition", p as i64), ("rank", sender as i64)],
        );
        let send = cluster.transmit_to_master(phase, sender, payload);
        if send.delivered() {
            rec.flow_end(
                flow,
                &[
                    ("partition", p as i64),
                    ("rank", sender as i64),
                    ("attempts", attempts_of(&send)),
                ],
            );
        } else {
            rec.flow_step(
                flow,
                &[
                    ("partition", p as i64),
                    ("rank", sender as i64),
                    ("attempts", attempts_of(&send)),
                ],
            );
            gather_flows[p] = flow;
            cluster.kill(sender);
            results[p] = None;
        }
    }

    // Recovery: the master notices missing results at the phase timeout
    // (derived from the cost model and the largest nominal task), reassigns
    // each lost partition to the least-loaded survivor and re-invokes the
    // pure scan there. Re-sends may themselves fail, killing the survivor
    // and keeping the partition pending, until results land or nobody is
    // left.
    let max_task_time = works
        .iter()
        .map(|&w| w as f64 * cluster.cost().per_work_unit)
        .fold(0.0, f64::max);
    let deadline =
        phase_start + (fault::TIMEOUT_FACTOR * max_task_time + cluster.cost().msg_latency);
    let mut pending: Vec<usize> = (0..partitions).filter(|&p| results[p].is_none()).collect();
    while let Some(p) = pending.first().copied() {
        pending.remove(0);
        let Some(survivor) = cluster.least_loaded_alive(None) else {
            return Err(DistError::AllRanksDead { phase });
        };
        let wait_from = cluster.clock(survivor);
        cluster.advance_to(survivor, deadline);
        rec.add("dist.recovery_rescans", 1);
        // Continue the partition's gather flow through the reassignment —
        // or, when the result died with the rank before any send, start a
        // recovery flow here so the re-scan is still causally anchored.
        if gather_flows[p].is_none() {
            gather_flows[p] = rec.flow_start(
                "dist",
                "dist.recovery_reassign",
                &[("partition", p as i64), ("rank", survivor as i64)],
            );
        } else {
            rec.flow_step(
                gather_flows[p],
                &[("partition", p as i64), ("reassigned_to", survivor as i64)],
            );
        }
        let mut w = 0;
        let recovered = scan(p, &mut w);
        cluster.charge_work(survivor, w);
        let payload = payload_of(&recovered);
        // Everything from the survivor's pre-recovery clock to after the
        // re-send is recovery overhead: the wait to the deadline, the
        // re-executed scan, and the retransmission itself. Backoff waits
        // inside the transmit are already counted there — subtract them so
        // the total recovery_time increment equals the clock delta exactly.
        let backoff_before = cluster.fault_report().recovery_time;
        let outcome = cluster.transmit_to_master(phase, survivor, payload);
        let backoff_during = cluster.fault_report().recovery_time - backoff_before;
        cluster.note_recovery_time(cluster.clock(survivor) - wait_from - backoff_during);
        if outcome.delivered() {
            rec.flow_end(
                gather_flows[p],
                &[
                    ("partition", p as i64),
                    ("rank", survivor as i64),
                    ("attempts", attempts_of(&outcome)),
                ],
            );
            results[p] = Some(recovered);
        } else {
            rec.flow_step(
                gather_flows[p],
                &[("partition", p as i64), ("attempts", attempts_of(&outcome))],
            );
            cluster.kill(survivor);
            pending.push(p);
        }
    }

    let mut gathered = Vec::with_capacity(results.len());
    for (p, r) in results.into_iter().enumerate() {
        match r {
            Some(v) => gathered.push(v),
            None => {
                return Err(DistError::LostPartition {
                    phase,
                    partition: p,
                })
            }
        }
    }
    Ok(PhaseExecution {
        results: gathered,
        timing: outcome.timing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::CostModel;
    use crate::fault::FaultPlan;

    fn flat_cost() -> CostModel {
        CostModel {
            per_work_unit: 1.0,
            msg_latency: 0.0,
            msg_per_byte: 0.0,
        }
    }

    /// The identity scan: each partition returns its own id and charges
    /// 10 work units.
    fn id_scan(p: usize, w: &mut u64) -> usize {
        *w += 10;
        p
    }

    /// One phase of [`id_scan`]s on a serial pool, 8-byte results, no
    /// recorder.
    fn run_ids(
        c: &mut SimCluster,
        phase: PhaseId,
        partitions: usize,
    ) -> Result<PhaseExecution<usize>, DistError> {
        execute_phase(
            c,
            &Pool::serial(),
            phase,
            partitions,
            id_scan,
            |_| 8,
            &Recorder::disabled(),
        )
    }

    #[test]
    fn fault_free_phase_returns_all_results_in_order() {
        let mut c = SimCluster::new(4, flat_cost()).unwrap();
        let run = run_ids(&mut c, PhaseId::TransitiveReduction, 4).unwrap();
        assert_eq!(run.results, vec![0, 1, 2, 3]);
        assert_eq!(run.timing.tasks, 4);
        assert_eq!(*c.fault_report(), Default::default());
    }

    #[test]
    fn crashed_partition_is_recovered_on_a_survivor() {
        let plan = FaultPlan::single_crash(PhaseId::TransitiveReduction, 2);
        let mut c = SimCluster::with_faults(4, flat_cost(), plan).unwrap();
        let run = run_ids(&mut c, PhaseId::TransitiveReduction, 4).unwrap();
        // The result set is complete and order-identical despite the crash.
        assert_eq!(run.results, vec![0, 1, 2, 3]);
        assert!(!c.is_alive(2));
        assert_eq!(c.fault_report().crashes, 1);
        assert!(c.fault_report().recovery_time > 0.0);
    }

    #[test]
    fn dead_rank_partitions_are_adopted_in_later_phases() {
        let plan = FaultPlan::single_crash(PhaseId::TransitiveReduction, 1);
        let mut c = SimCluster::with_faults(2, flat_cost(), plan).unwrap();
        run_ids(&mut c, PhaseId::TransitiveReduction, 2).unwrap();
        // Next phase: partition 1 has no owner, rank 0 adopts it up front —
        // no timeout, no crash recorded, still every result delivered.
        let crashes_before = c.fault_report().crashes;
        let run = run_ids(&mut c, PhaseId::ContainmentRemoval, 2).unwrap();
        assert_eq!(run.results, vec![0, 1]);
        assert_eq!(c.fault_report().crashes, crashes_before);
    }

    #[test]
    fn exhausted_retransmissions_presume_sender_dead_and_recover() {
        let plan = FaultPlan::message_drops(PhaseId::ErrorRemoval, 1, 99);
        let mut c = SimCluster::with_faults(3, CostModel::default(), plan).unwrap();
        let run = run_ids(&mut c, PhaseId::ErrorRemoval, 3).unwrap();
        assert_eq!(run.results, vec![0, 1, 2]);
        assert!(
            !c.is_alive(1),
            "sender with exhausted retries is presumed dead"
        );
        assert_eq!(c.fault_report().retries, fault::MAX_ATTEMPTS);
        assert!(c.fault_report().degraded);
    }

    #[test]
    fn simultaneous_multi_rank_crashes_recover_on_the_survivors() {
        let plan = FaultPlan::crashes(PhaseId::TransitiveReduction, &[1, 2, 3]);
        let mut c = SimCluster::with_faults(4, flat_cost(), plan).unwrap();
        let run = run_ids(&mut c, PhaseId::TransitiveReduction, 4).unwrap();
        // All three dead ranks' partitions are re-scanned on the lone
        // survivor; results stay complete and in partition order.
        assert_eq!(run.results, vec![0, 1, 2, 3]);
        assert_eq!(c.alive_count(), 1);
        assert_eq!(c.fault_report().crashes, 3);
        assert!(c.fault_report().recovery_time > 0.0);
    }

    #[test]
    fn every_rank_crashing_simultaneously_is_all_ranks_dead() {
        let plan = FaultPlan::crashes(PhaseId::ErrorRemoval, &[0, 1, 2, 3]);
        let mut c = SimCluster::with_faults(4, flat_cost(), plan).unwrap();
        let err = run_ids(&mut c, PhaseId::ErrorRemoval, 4).unwrap_err();
        assert_eq!(
            err,
            DistError::AllRanksDead {
                phase: PhaseId::ErrorRemoval
            }
        );
    }

    #[test]
    fn losing_every_rank_is_a_typed_error() {
        let plan = FaultPlan::single_crash(PhaseId::Traversal, 0);
        let mut c = SimCluster::with_faults(1, flat_cost(), plan).unwrap();
        let err = run_ids(&mut c, PhaseId::Traversal, 1).unwrap_err();
        assert_eq!(
            err,
            DistError::AllRanksDead {
                phase: PhaseId::Traversal
            }
        );
    }
}
