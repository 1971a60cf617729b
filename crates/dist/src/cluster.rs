//! The simulated cluster: virtual rank clocks, cost model, scheduling, and
//! fault-aware execution (crashes, drops, delays, stragglers) driven by a
//! deterministic [`FaultPlan`].

use crate::error::DistError;
use crate::fault::{self, FaultPlan, FaultReport, PhaseId};

/// Converts abstract work and message counts into virtual time.
///
/// Units are arbitrary ("virtual microseconds"); every experiment reports
/// ratios (speedup) or relative comparisons, so only the *relative*
/// magnitudes matter. The defaults reflect the regime the paper measures
/// in: per-partition graph work takes seconds while a message takes
/// microseconds, so one work unit (an edge relaxation / gain evaluation /
/// base comparison) costs 1 unit and a message only a few units of latency.
/// Experiments that want to study communication pressure can raise
/// `msg_latency` explicitly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Virtual time per abstract work unit.
    pub per_work_unit: f64,
    /// Virtual time per message (latency).
    pub msg_latency: f64,
    /// Virtual time per transferred byte (inverse bandwidth).
    pub msg_per_byte: f64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            per_work_unit: 1.0,
            msg_latency: 5.0,
            msg_per_byte: 0.002,
        }
    }
}

/// Timing of one parallel phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseTiming {
    /// Virtual makespan of the phase (time from phase start to last rank
    /// finishing, including message costs).
    pub makespan: f64,
    /// Sum of all ranks' busy time (serial-equivalent work).
    pub total_work_time: f64,
    /// Number of scheduled tasks.
    pub tasks: usize,
}

/// Typed outcome of one fault-aware parallel phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseOutcome {
    /// Timing of the compute part of the phase.
    pub timing: PhaseTiming,
    /// Indices (into the submitted task list) whose results were lost to a
    /// rank crash and must be re-executed by the recovery layer.
    pub lost: Vec<usize>,
    /// Ranks that died during this phase.
    pub crashed: Vec<usize>,
    /// Ranks whose work was speculatively re-executed on a backup because
    /// they straggled past [`fault::STRAGGLER_FACTOR`] × the median rank time.
    pub speculated: Vec<usize>,
}

/// Typed outcome of one (possibly retransmitted) result transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The payload reached the master after `attempts` sends.
    Delivered {
        /// Total transmission attempts (1 = no retry needed).
        attempts: u32,
    },
    /// All [`fault::MAX_ATTEMPTS`] attempts were dropped; the master
    /// presumes the sender dead and the payload lost.
    Lost,
}

impl SendOutcome {
    /// True when the payload arrived.
    pub fn delivered(&self) -> bool {
        matches!(self, SendOutcome::Delivered { .. })
    }
}

/// A deterministic simulated cluster of `ranks` workers.
///
/// Tasks are list-scheduled in submission order onto the least-loaded rank —
/// the same greedy assignment an MPI master handing out partitions performs.
/// `barrier` synchronises all clocks, modelling a collective.
///
/// A cluster built with [`SimCluster::with_faults`] additionally consumes a
/// [`FaultPlan`]: ranks crash mid-phase, messages drop (and are
/// retransmitted with exponential backoff, [`fault::backoff_delay`]), links
/// stall and stragglers get speculatively re-executed. Everything — drops,
/// waits, recovery charges — is charged in virtual time, and the whole run
/// is a pure function of `(plan, inputs)`.
#[derive(Debug, Clone)]
pub struct SimCluster {
    clocks: Vec<f64>,
    alive: Vec<bool>,
    cost: CostModel,
    messages: u64,
    bytes: u64,
    plan: FaultPlan,
    fault: FaultReport,
}

impl SimCluster {
    /// Creates a fault-free cluster with `ranks` workers (≥ 1).
    pub fn new(ranks: usize, cost: CostModel) -> Result<SimCluster, DistError> {
        SimCluster::with_faults(ranks, cost, FaultPlan::none())
    }

    /// Creates a cluster that executes under a fault-injection plan.
    pub fn with_faults(
        ranks: usize,
        cost: CostModel,
        plan: FaultPlan,
    ) -> Result<SimCluster, DistError> {
        if ranks == 0 {
            return Err(DistError::NoRanks);
        }
        Ok(SimCluster {
            clocks: vec![0.0; ranks],
            alive: vec![true; ranks],
            cost,
            messages: 0,
            bytes: 0,
            plan,
            fault: FaultReport::default(),
        })
    }

    /// Number of ranks (dead ones included).
    pub fn ranks(&self) -> usize {
        self.clocks.len()
    }

    /// The cost model in use.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The fault-injection plan being consumed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Fault counters accumulated so far.
    pub fn fault_report(&self) -> &FaultReport {
        &self.fault
    }

    /// Total messages sent so far (retransmissions included).
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Total bytes sent so far (retransmissions included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Is `rank` still alive?
    pub fn is_alive(&self, rank: usize) -> bool {
        self.alive[rank]
    }

    /// Number of live ranks.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Live rank ids in ascending order.
    pub fn alive_ranks(&self) -> Vec<usize> {
        (0..self.ranks()).filter(|&r| self.alive[r]).collect()
    }

    /// Marks `rank` dead (idempotent). Its clock freezes; the crash is
    /// counted and the run flagged degraded.
    pub fn kill(&mut self, rank: usize) {
        if self.alive[rank] {
            self.alive[rank] = false;
            self.fault.crashes += 1;
            self.fault.degraded = true;
        }
    }

    /// Virtual clock of one rank.
    pub fn clock(&self, rank: usize) -> f64 {
        self.clocks[rank]
    }

    /// Advances `rank`'s clock to at least `t` (a wait).
    pub fn advance_to(&mut self, rank: usize, t: f64) {
        if self.clocks[rank] < t {
            self.clocks[rank] = t;
        }
    }

    /// Charges `work` abstract units of compute to `rank`.
    pub fn charge_work(&mut self, rank: usize, work: u64) {
        self.clocks[rank] += work as f64 * self.cost.per_work_unit;
    }

    /// Adds recovery-attributed virtual time to the fault counters.
    pub(crate) fn note_recovery_time(&mut self, dt: f64) {
        self.fault.recovery_time += dt;
    }

    /// Current virtual time: the furthest clock among live ranks and the
    /// master (rank 0's clock carries master-side costs even if its worker
    /// process died).
    pub fn now(&self) -> f64 {
        let mut t = self.clocks[0];
        for r in 1..self.ranks() {
            if self.alive[r] {
                t = t.max(self.clocks[r]);
            }
        }
        t
    }

    /// Synchronises live ranks (and the master clock) to the current
    /// virtual time — a collective. Dead ranks stay frozen.
    pub fn barrier(&mut self) {
        let now = self.now();
        for r in 0..self.ranks() {
            if self.alive[r] || r == 0 {
                self.clocks[r] = now;
            }
        }
    }

    /// Runs one fault-free parallel phase: `work[i]` abstract work units per
    /// task, list-scheduled in order onto the least-loaded live rank. A
    /// barrier is implied before the phase starts. Returns the phase timing.
    ///
    /// This is the replay path for pre-recorded task logs (Figs. 4/5); the
    /// distributed pipeline itself goes through [`SimCluster::run_phase_faulty`].
    pub fn run_phase(&mut self, work: &[u64]) -> PhaseTiming {
        self.barrier();
        let start = self.now();
        for &w in work {
            let rank = self.least_loaded_alive(None).unwrap_or(0);
            self.clocks[rank] += w as f64 * self.cost.per_work_unit;
        }
        let makespan = self.now() - start;
        let total: f64 = work
            .iter()
            .map(|&w| w as f64 * self.cost.per_work_unit)
            .sum();
        PhaseTiming {
            makespan,
            total_work_time: total,
            tasks: work.len(),
        }
    }

    /// Runs one parallel phase under the fault plan. `tasks[i] = (rank, w)`
    /// pins task `i` to an executor rank with `w` abstract work units (the
    /// master's partition→rank assignment is made by the recovery layer).
    ///
    /// Injected behaviour, all deterministic:
    /// * a rank scheduled to crash dies midway through its first task of the
    ///   phase — half the task's time is charged, all of the rank's tasks
    ///   this phase are reported in [`PhaseOutcome::lost`];
    /// * a straggling rank (slowdown factor from the plan) whose busy time
    ///   exceeds [`fault::STRAGGLER_FACTOR`] × the median is speculatively
    ///   re-executed on the least-loaded other live rank; whichever copy
    ///   finishes first wins and the loser is cancelled.
    pub fn run_phase_faulty(&mut self, phase: PhaseId, tasks: &[(usize, u64)]) -> PhaseOutcome {
        self.barrier();
        let start = self.now();
        let mut total_work_time = 0.0;
        let mut lost = Vec::new();
        let mut crashed = Vec::new();

        // Nominal (unstraggled) per-rank compute time, for speculation.
        let mut nominal: Vec<f64> = vec![0.0; self.ranks()];
        // Charge compute, applying slowdowns and crashes.
        for (i, &(rank, w)) in tasks.iter().enumerate() {
            if !self.alive[rank] {
                lost.push(i);
                continue;
            }
            let slow = self.plan.straggle_factor_at(phase, rank);
            let t = w as f64 * self.cost.per_work_unit * slow;
            if self.plan.crash_at(phase, rank) {
                // Dies midway through its first task; everything the rank
                // computed this phase is lost with its memory.
                self.clocks[rank] += 0.5 * t;
                total_work_time += 0.5 * t;
                self.kill(rank);
                crashed.push(rank);
                lost.push(i);
                // Later tasks pinned to this rank fall into the `!alive`
                // arm above and are reported lost without being charged.
                continue;
            }
            self.clocks[rank] += t;
            nominal[rank] += w as f64 * self.cost.per_work_unit;
            total_work_time += t;
        }

        // Straggler speculation: compare live ranks' busy times against the
        // median; launch a backup copy for anyone beyond the threshold.
        let mut speculated = Vec::new();
        let mut busy: Vec<(usize, f64)> = (0..self.ranks())
            .filter(|&r| self.alive[r] && self.clocks[r] > start)
            .map(|r| (r, self.clocks[r] - start))
            .collect();
        if busy.len() >= 2 {
            let mut times: Vec<f64> = busy.iter().map(|&(_, t)| t).collect();
            times.sort_by(|a, b| a.total_cmp(b));
            let median = times[(times.len() - 1) / 2];
            let threshold = fault::STRAGGLER_FACTOR * median;
            busy.sort_by_key(|&(r, _)| r);
            for (rank, t) in busy {
                if median <= 0.0 || t <= threshold {
                    continue;
                }
                let Some(backup) = self.least_loaded_alive(Some(rank)) else {
                    continue;
                };
                // The master notices the straggler at the threshold and
                // relaunches its tasks, at nominal speed, on the backup.
                let backup_start = self.clocks[backup].max(start + threshold);
                let backup_finish = backup_start + nominal[rank];
                if backup_finish < self.clocks[rank] {
                    self.clocks[backup] = backup_finish;
                    // The straggler's copy is cancelled: it stops burning
                    // virtual time the moment the backup's result lands.
                    self.clocks[rank] = backup_finish;
                    self.fault.speculative_reexecutions += 1;
                    self.fault.recovery_time += nominal[rank];
                    total_work_time += nominal[rank];
                    speculated.push(rank);
                }
            }
        }

        let makespan = self.now() - start;
        PhaseOutcome {
            timing: PhaseTiming {
                makespan,
                total_work_time,
                tasks: tasks.len(),
            },
            lost,
            crashed,
            speculated,
        }
    }

    /// Transmits a result payload from `sender` to the master under the
    /// fault plan: scheduled drops consume transmission attempts, each
    /// failed attempt waits an exponential-backoff delay, and link delays
    /// multiply the per-message cost. Every attempt (delivered or not) is
    /// charged to the sender's clock and counted in `messages`/`bytes`;
    /// only a delivered attempt advances the master.
    pub fn transmit_to_master(
        &mut self,
        phase: PhaseId,
        sender: usize,
        payload: u64,
    ) -> SendOutcome {
        let drops = self.plan.drops_at(phase, sender);
        let delay = self.plan.delay_factor_at(phase, sender);
        let per_attempt = (self.cost.msg_latency + payload as f64 * self.cost.msg_per_byte) * delay;
        for attempt in 1..=fault::MAX_ATTEMPTS {
            self.clocks[sender] += per_attempt;
            self.messages += 1;
            self.bytes += payload;
            if attempt <= drops {
                // Dropped in flight: back off, then retransmit.
                self.fault.retries += 1;
                self.fault.retransmitted_bytes += payload;
                let wait = fault::backoff_delay(attempt);
                self.clocks[sender] += wait;
                self.fault.recovery_time += wait;
                continue;
            }
            self.clocks[0] = f64::max(self.clocks[0] + per_attempt, self.clocks[sender]);
            return SendOutcome::Delivered { attempts: attempt };
        }
        SendOutcome::Lost
    }

    /// Charges serial master-side work (e.g. applying recorded removals).
    pub fn master_work(&mut self, work: u64) {
        self.clocks[0] += work as f64 * self.cost.per_work_unit;
    }

    /// Least-loaded live rank, optionally excluding one; ties break toward
    /// the lowest rank id. `None` when no live rank qualifies.
    pub fn least_loaded_alive(&self, exclude: Option<usize>) -> Option<usize> {
        let mut best: Option<usize> = None;
        for r in 0..self.ranks() {
            if !self.alive[r] || Some(r) == exclude {
                continue;
            }
            match best {
                Some(b) if self.clocks[r] >= self.clocks[b] => {}
                _ => best = Some(r),
            }
        }
        best
    }
}

/// List-schedules a sequence of barrier-separated phases (each a slice of
/// task works) onto `ranks` processors and returns the total virtual
/// makespan. Used to replay the partitioner's task log (Fig. 4/5). Zero
/// ranks means the work can never finish, reported as an infinite makespan.
pub fn schedule_phases(phases: &[Vec<u64>], ranks: usize, cost: CostModel) -> f64 {
    let Ok(mut cluster) = SimCluster::new(ranks, cost) else {
        return f64::INFINITY;
    };
    for phase in phases {
        cluster.run_phase(phase);
    }
    cluster.barrier();
    cluster.now()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_cost() -> CostModel {
        CostModel {
            per_work_unit: 1.0,
            msg_latency: 0.0,
            msg_per_byte: 0.0,
        }
    }

    #[test]
    fn single_rank_serialises_everything() {
        let mut c = SimCluster::new(1, flat_cost()).unwrap();
        let t = c.run_phase(&[10, 20, 30]);
        assert_eq!(t.makespan, 60.0);
        assert_eq!(t.total_work_time, 60.0);
        assert_eq!(c.now(), 60.0);
    }

    #[test]
    fn equal_tasks_split_perfectly() {
        let mut c = SimCluster::new(4, flat_cost()).unwrap();
        let t = c.run_phase(&[10; 8]);
        assert_eq!(t.makespan, 20.0);
        assert_eq!(t.total_work_time, 80.0);
    }

    #[test]
    fn makespan_bounded_by_longest_task() {
        let mut c = SimCluster::new(8, flat_cost()).unwrap();
        let t = c.run_phase(&[100, 1, 1, 1]);
        assert_eq!(t.makespan, 100.0);
    }

    #[test]
    fn barrier_aligns_clocks() {
        let mut c = SimCluster::new(2, flat_cost()).unwrap();
        c.run_phase(&[10]);
        c.barrier();
        let t = c.run_phase(&[5]);
        assert_eq!(t.makespan, 5.0);
        assert_eq!(c.now(), 15.0);
    }

    #[test]
    fn messages_charge_latency_and_bandwidth() {
        let cost = CostModel {
            per_work_unit: 1.0,
            msg_latency: 100.0,
            msg_per_byte: 0.5,
        };
        let mut c = SimCluster::new(2, cost).unwrap();
        let out = c.transmit_to_master(PhaseId::Traversal, 1, 200);
        assert_eq!(out, SendOutcome::Delivered { attempts: 1 });
        assert_eq!(c.messages(), 1);
        assert_eq!(c.bytes(), 200);
        assert_eq!(c.now(), 200.0); // 100 + 200*0.5
    }

    #[test]
    fn more_ranks_never_slower() {
        let phases = vec![vec![7, 13, 4, 9, 22, 5, 16, 8]];
        let mut last = f64::INFINITY;
        for ranks in 1..=8 {
            let t = schedule_phases(&phases, ranks, flat_cost());
            assert!(t <= last + 1e-9, "ranks {ranks} slower: {t} > {last}");
            last = t;
        }
    }

    #[test]
    fn speedup_saturates_at_task_parallelism() {
        // 4 equal tasks: speedup caps at 4 regardless of rank count.
        let phases = vec![vec![50; 4]];
        let t1 = schedule_phases(&phases, 1, flat_cost());
        let t4 = schedule_phases(&phases, 4, flat_cost());
        let t16 = schedule_phases(&phases, 16, flat_cost());
        assert_eq!(t1 / t4, 4.0);
        assert_eq!(t4, t16);
    }

    #[test]
    fn zero_ranks_rejected_with_typed_error() {
        assert_eq!(
            SimCluster::new(0, CostModel::default()).unwrap_err(),
            DistError::NoRanks
        );
    }

    #[test]
    fn crash_loses_rank_tasks_and_freezes_clock() {
        let plan = FaultPlan::single_crash(PhaseId::TransitiveReduction, 1);
        let mut c = SimCluster::with_faults(2, flat_cost(), plan).unwrap();
        let out = c.run_phase_faulty(PhaseId::TransitiveReduction, &[(0, 10), (1, 20)]);
        assert_eq!(out.lost, vec![1]);
        assert_eq!(out.crashed, vec![1]);
        assert!(!c.is_alive(1));
        assert_eq!(c.alive_count(), 1);
        // The crashed rank burned half its task before dying.
        assert_eq!(c.clock(1), 10.0);
        assert_eq!(c.fault_report().crashes, 1);
        assert!(c.fault_report().degraded);
        // A second phase never schedules on the corpse.
        let out = c.run_phase_faulty(PhaseId::ContainmentRemoval, &[(1, 5)]);
        assert_eq!(out.lost, vec![0]);
        assert!(out.crashed.is_empty(), "a dead rank cannot crash again");
        assert_eq!(c.fault_report().crashes, 1);
    }

    #[test]
    fn retransmissions_match_drop_count_and_backoff_charges_time() {
        // Hand-computed expectation: latency 100, no bandwidth cost, two
        // drops, backoff 10 then 20 (base 10, doubling). Sender timeline:
        //   attempt 1 (100) + backoff 10 + attempt 2 (100) + backoff 20
        //   + attempt 3 (100) = 330.
        let cost = CostModel {
            per_work_unit: 1.0,
            msg_latency: 100.0,
            msg_per_byte: 0.0,
        };
        let plan = FaultPlan::message_drops(PhaseId::Traversal, 1, 2);
        let mut c = SimCluster::with_faults(2, cost, plan).unwrap();
        let out = c.transmit_to_master(PhaseId::Traversal, 1, 0);
        assert_eq!(out, SendOutcome::Delivered { attempts: 3 });
        assert_eq!(c.fault_report().retries, 2);
        assert_eq!(c.clock(1), 330.0);
        assert_eq!(c.now(), 330.0); // master waits for the sender
        assert_eq!(c.messages(), 3);
        // Backoff waits are attributed to recovery time.
        assert_eq!(c.fault_report().recovery_time, 30.0);
    }

    #[test]
    fn drop_exhaustion_reports_lost_send() {
        let plan = FaultPlan::message_drops(PhaseId::Traversal, 0, 99);
        let mut c = SimCluster::with_faults(1, CostModel::default(), plan).unwrap();
        let out = c.transmit_to_master(PhaseId::Traversal, 0, 8);
        assert_eq!(out, SendOutcome::Lost);
        // retries = min(N, MAX_ATTEMPTS): every attempt was dropped.
        assert_eq!(c.fault_report().retries, 4);
        assert_eq!(c.fault_report().retransmitted_bytes, 32);
    }

    #[test]
    fn retransmitted_bytes_counted_per_drop() {
        let plan = FaultPlan::message_drops(PhaseId::ErrorRemoval, 1, 1);
        let mut c = SimCluster::with_faults(2, CostModel::default(), plan).unwrap();
        let out = c.transmit_to_master(PhaseId::ErrorRemoval, 1, 100);
        assert_eq!(out, SendOutcome::Delivered { attempts: 2 });
        assert_eq!(c.fault_report().retransmitted_bytes, 100);
        assert_eq!(c.bytes(), 200); // both attempts hit the wire
    }

    #[test]
    fn straggler_is_speculatively_reexecuted() {
        use crate::fault::{FaultEvent, FaultKind};
        // Rank 1 is slowed 16×: 10 units of work become 160. The median
        // rank time is 10, the threshold 4 × 10 = 40, so the master starts
        // a backup at t = 40 on the least-loaded other rank, which finishes
        // the nominal 10 units at t = 50 < 160 and wins.
        let plan = FaultPlan::new(vec![FaultEvent {
            phase: PhaseId::ErrorRemoval,
            rank: 1,
            kind: FaultKind::Straggle { factor: 16.0 },
        }]);
        let mut c = SimCluster::with_faults(3, flat_cost(), plan).unwrap();
        let out = c.run_phase_faulty(PhaseId::ErrorRemoval, &[(0, 10), (1, 10), (2, 10)]);
        assert_eq!(out.speculated, vec![1]);
        assert_eq!(c.fault_report().speculative_reexecutions, 1);
        assert_eq!(out.timing.makespan, 50.0);
        assert_eq!(
            c.clock(1),
            50.0,
            "the cancelled straggler stops at the backup's finish"
        );
    }

    #[test]
    fn mild_straggler_is_left_alone() {
        use crate::fault::{FaultEvent, FaultKind};
        let plan = FaultPlan::new(vec![FaultEvent {
            phase: PhaseId::ErrorRemoval,
            rank: 1,
            kind: FaultKind::Straggle { factor: 2.0 },
        }]);
        let mut c = SimCluster::with_faults(2, flat_cost(), plan).unwrap();
        let out = c.run_phase_faulty(PhaseId::ErrorRemoval, &[(0, 10), (1, 10)]);
        assert!(out.speculated.is_empty());
        assert_eq!(out.timing.makespan, 20.0);
    }

    #[test]
    fn delay_events_multiply_message_cost() {
        use crate::fault::{FaultEvent, FaultKind};
        let cost = CostModel {
            per_work_unit: 1.0,
            msg_latency: 10.0,
            msg_per_byte: 0.0,
        };
        let plan = FaultPlan::new(vec![FaultEvent {
            phase: PhaseId::Traversal,
            rank: 1,
            kind: FaultKind::MessageDelay { factor: 4.0 },
        }]);
        let mut c = SimCluster::with_faults(2, cost, plan).unwrap();
        c.transmit_to_master(PhaseId::Traversal, 1, 0);
        assert_eq!(c.clock(1), 40.0);
    }

    #[test]
    fn faultless_cluster_has_clean_report() {
        let mut c = SimCluster::new(4, CostModel::default()).unwrap();
        c.run_phase_faulty(
            PhaseId::TransitiveReduction,
            &[(0, 5), (1, 5), (2, 5), (3, 5)],
        );
        for r in 0..4 {
            assert!(c
                .transmit_to_master(PhaseId::TransitiveReduction, r, 16)
                .delivered());
        }
        assert_eq!(*c.fault_report(), FaultReport::default());
    }
}
