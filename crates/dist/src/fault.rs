//! Deterministic fault injection for the simulated cluster.
//!
//! Real distributed assemblers treat failure as a first-class concern: ranks
//! crash, messages drop or stall, stragglers dominate makespans. This module
//! describes failures as **data** — a [`FaultPlan`] is a fully deterministic
//! injection schedule keyed by `(phase, rank)` — so every failure scenario is
//! reproducible bit-for-bit in tests and benches. The plan is consumed by
//! [`SimCluster`](crate::cluster::SimCluster) (timing, retries, backoff) and
//! by the [`recovery`](crate::recovery) engine (reassignment and
//! re-execution).
//!
//! The worker algorithms of every pipeline phase are pure functions over
//! `(&graph, nodes)`, so recovery never needs checkpoints: re-running a lost
//! scan on a surviving rank reproduces the lost records exactly. The
//! structural guarantee (asserted by `tests/invariants.rs`) is that any
//! single-rank crash, in any phase, still yields the exact same final path
//! cover as the fault-free run; the contract matrix (`tests/common/matrix.rs`)
//! holds a seeded plan of crashes and drops to the fault-free run's
//! contigs, and to one fault report at every thread count.

use crate::error::DistError;
use fc_rng::Rng;

/// The four phases of the distributed pipeline (paper §V), in execution
/// order. Fault events are keyed by phase so a schedule can target e.g. "the
/// trimming phase on rank 2".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseId {
    /// §V-A transitive edge reduction.
    TransitiveReduction,
    /// §V-B containment and false-positive edge removal.
    ContainmentRemoval,
    /// §V-C dead-end trimming and bubble popping.
    ErrorRemoval,
    /// §V-D maximal-path traversal.
    Traversal,
}

impl PhaseId {
    /// All phases in pipeline order.
    pub const ALL: [PhaseId; 4] = [
        PhaseId::TransitiveReduction,
        PhaseId::ContainmentRemoval,
        PhaseId::ErrorRemoval,
        PhaseId::Traversal,
    ];

    /// Stable display name (matches `DistributedReport::phases` labels).
    pub fn name(self) -> &'static str {
        match self {
            PhaseId::TransitiveReduction => "transitive_reduction",
            PhaseId::ContainmentRemoval => "containment_removal",
            PhaseId::ErrorRemoval => "error_removal",
            PhaseId::Traversal => "traversal",
        }
    }
}

/// What goes wrong at a `(phase, rank)` cell of the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The rank dies midway through its first task of the phase. Its
    /// in-memory phase results are lost; the master detects the silence via
    /// the phase timeout and re-runs the lost scans on survivors.
    Crash,
    /// The rank's next `count` result transmissions in this phase are
    /// dropped in flight. Each drop triggers a retransmission after an
    /// exponential-backoff delay, up to [`MAX_ATTEMPTS`];
    /// exhaustion makes the master presume the sender dead.
    MessageDrop {
        /// Number of consecutive transmissions that vanish.
        count: u32,
    },
    /// Every message the rank sends in this phase costs `factor ×` the
    /// modelled latency + bandwidth time (congested or lossy link).
    MessageDelay {
        /// Multiplier on the per-message virtual cost (≥ 1).
        factor: f64,
    },
    /// The rank computes at `1/factor` speed for this phase (CPU
    /// contention, thermal throttling). Stragglers exceeding
    /// [`STRAGGLER_FACTOR`] × the median rank time are
    /// speculatively re-executed on the least-loaded survivor.
    Straggle {
        /// Multiplier on the rank's compute time (≥ 1).
        factor: f64,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Pipeline phase the fault strikes in.
    pub phase: PhaseId,
    /// Target rank (also the partition it owns at pipeline start).
    pub rank: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic fault-injection schedule. Identical plans produce
/// bit-identical runs: every injected failure, retry, backoff wait and
/// recovery decision is a pure function of the plan and the input graph.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: a perfect machine.
    pub fn none() -> FaultPlan {
        FaultPlan { events: Vec::new() }
    }

    /// A plan from an explicit event list.
    pub fn new(events: Vec<FaultEvent>) -> FaultPlan {
        FaultPlan { events }
    }

    /// Convenience: a single rank crash at `(phase, rank)`.
    pub fn single_crash(phase: PhaseId, rank: usize) -> FaultPlan {
        FaultPlan::new(vec![FaultEvent {
            phase,
            rank,
            kind: FaultKind::Crash,
        }])
    }

    /// Convenience: simultaneous crashes of several ranks in one phase —
    /// the multi-rank failure scenario (correlated power or switch loss
    /// taking out several nodes at once).
    pub fn crashes(phase: PhaseId, ranks: &[usize]) -> FaultPlan {
        FaultPlan::new(
            ranks
                .iter()
                .map(|&rank| FaultEvent {
                    phase,
                    rank,
                    kind: FaultKind::Crash,
                })
                .collect(),
        )
    }

    /// Convenience: `count` consecutive message drops at `(phase, rank)`.
    pub fn message_drops(phase: PhaseId, rank: usize, count: u32) -> FaultPlan {
        FaultPlan::new(vec![FaultEvent {
            phase,
            rank,
            kind: FaultKind::MessageDrop { count },
        }])
    }

    /// Generates a schedule by sampling every `(phase, rank)` cell with the
    /// given per-cell probabilities, using a seeded SplitMix64 stream —
    /// the same `(seed, ranks, rates)` always yields the same plan.
    pub fn random(seed: u64, ranks: usize, rates: &FaultRates) -> FaultPlan {
        let mut rng = Rng::new(seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut events = Vec::new();
        for phase in PhaseId::ALL {
            for rank in 0..ranks {
                if rng.bool(rates.crash) {
                    events.push(FaultEvent {
                        phase,
                        rank,
                        kind: FaultKind::Crash,
                    });
                }
                if rng.bool(rates.drop) {
                    events.push(FaultEvent {
                        phase,
                        rank,
                        kind: FaultKind::MessageDrop {
                            count: rates.drop_repeats,
                        },
                    });
                }
                if rng.bool(rates.delay) {
                    events.push(FaultEvent {
                        phase,
                        rank,
                        kind: FaultKind::MessageDelay {
                            factor: rates.delay_factor,
                        },
                    });
                }
                if rng.bool(rates.straggle) {
                    events.push(FaultEvent {
                        phase,
                        rank,
                        kind: FaultKind::Straggle {
                            factor: rates.straggle_factor,
                        },
                    });
                }
            }
        }
        FaultPlan { events }
    }

    /// Appends an event.
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
    }

    /// The scheduled events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Is a crash scheduled at `(phase, rank)`?
    pub fn crash_at(&self, phase: PhaseId, rank: usize) -> bool {
        self.events
            .iter()
            .any(|e| e.phase == phase && e.rank == rank && matches!(e.kind, FaultKind::Crash))
    }

    /// Scheduled consecutive message drops at `(phase, rank)` (summed over
    /// events targeting the cell).
    pub fn drops_at(&self, phase: PhaseId, rank: usize) -> u32 {
        self.events
            .iter()
            .filter(|e| e.phase == phase && e.rank == rank)
            .map(|e| match e.kind {
                FaultKind::MessageDrop { count } => count,
                _ => 0,
            })
            .sum()
    }

    /// Message-cost multiplier at `(phase, rank)` (product of scheduled
    /// delays; `1.0` when none).
    pub fn delay_factor_at(&self, phase: PhaseId, rank: usize) -> f64 {
        self.events
            .iter()
            .filter(|e| e.phase == phase && e.rank == rank)
            .map(|e| match e.kind {
                FaultKind::MessageDelay { factor } => factor.max(1.0),
                _ => 1.0,
            })
            .product()
    }

    /// Compute-time multiplier at `(phase, rank)` (product of scheduled
    /// slowdowns; `1.0` when none).
    pub fn straggle_factor_at(&self, phase: PhaseId, rank: usize) -> f64 {
        self.events
            .iter()
            .filter(|e| e.phase == phase && e.rank == rank)
            .map(|e| match e.kind {
                FaultKind::Straggle { factor } => factor.max(1.0),
                _ => 1.0,
            })
            .product()
    }
}

/// Per-cell probabilities for [`FaultPlan::random`]. All probabilities are
/// evaluated independently per `(phase, rank)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability a rank crashes in a given phase.
    pub crash: f64,
    /// Probability a rank's result transmission hits a drop burst.
    pub drop: f64,
    /// Length of each drop burst (consecutive lost transmissions).
    pub drop_repeats: u32,
    /// Probability a rank's messages are delayed for a phase.
    pub delay: f64,
    /// Delay multiplier applied when a delay event fires.
    pub delay_factor: f64,
    /// Probability a rank straggles in a given phase.
    pub straggle: f64,
    /// Slowdown multiplier applied when a straggle event fires.
    pub straggle_factor: f64,
}

impl Default for FaultRates {
    fn default() -> FaultRates {
        FaultRates {
            crash: 0.0,
            drop: 0.0,
            drop_repeats: 2,
            delay: 0.0,
            delay_factor: 4.0,
            straggle: 0.0,
            straggle_factor: 8.0,
        }
    }
}

impl FaultRates {
    /// Checks all probabilities lie in `[0, 1]` and factors are ≥ 1.
    pub fn validate(&self) -> Result<(), DistError> {
        for (name, p) in [
            ("crash", self.crash),
            ("drop", self.drop),
            ("delay", self.delay),
            ("straggle", self.straggle),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(DistError::InvalidFaultRates(format!(
                    "{name} probability {p} outside [0, 1]"
                )));
            }
        }
        if self.delay_factor < 1.0 || self.straggle_factor < 1.0 {
            return Err(DistError::InvalidFaultRates(
                "delay/straggle factors must be >= 1".to_string(),
            ));
        }
        Ok(())
    }
}

// How the master answers failures. Every wait is charged in virtual time,
// so fault handling shows in makespans as real latency would.

/// Transmission attempts per message, the first send included.
pub const MAX_ATTEMPTS: u32 = 4;
/// Backoff after the first failed attempt; doubles per further failure.
pub const BACKOFF_BASE: f64 = 10.0;
/// Upper bound on a single backoff wait.
pub const BACKOFF_CAP: f64 = 160.0;
/// A silent rank is presumed dead after this multiple of the phase's
/// longest nominal task time, plus one message latency.
pub const TIMEOUT_FACTOR: f64 = 3.0;
/// A rank whose phase time exceeds this multiple of the median rank time
/// is a straggler, and is speculatively re-executed.
pub const STRAGGLER_FACTOR: f64 = 4.0;

/// Backoff wait after the `attempt`-th failed attempt (1-based):
/// `min(BACKOFF_BASE × 2^(attempt-1), BACKOFF_CAP)`.
pub fn backoff_delay(attempt: u32) -> f64 {
    let exp = attempt.saturating_sub(1).min(62);
    (BACKOFF_BASE * (1u64 << exp) as f64).min(BACKOFF_CAP)
}

/// What the fault layer observed during one pipeline run. Deterministic:
/// identical `(plan, input)` pairs reproduce identical reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultReport {
    /// Ranks that died (injected crashes plus presumed-dead senders whose
    /// retransmissions were exhausted).
    pub crashes: u32,
    /// Dropped transmissions that triggered a retransmission or exhaustion
    /// (= `min(scheduled drops, MAX_ATTEMPTS)` per affected message).
    pub retries: u32,
    /// Payload bytes spent on retransmissions (lost sends).
    pub retransmitted_bytes: u64,
    /// Straggler tasks speculatively re-executed on a backup rank.
    pub speculative_reexecutions: u32,
    /// Virtual time spent on recovery: backoff waits, timeout waits and
    /// re-executed scans.
    pub recovery_time: f64,
    /// True when at least one rank was lost for good — the pipeline
    /// finished on a reduced cluster.
    pub degraded: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_are_deterministic_in_seed() {
        let rates = FaultRates {
            crash: 0.3,
            drop: 0.3,
            straggle: 0.2,
            ..Default::default()
        };
        let a = FaultPlan::random(7, 8, &rates);
        let b = FaultPlan::random(7, 8, &rates);
        assert_eq!(a, b);
        let c = FaultPlan::random(8, 8, &rates);
        assert_ne!(a, c, "different seeds should (generically) differ");
    }

    #[test]
    fn rate_zero_yields_empty_plan() {
        let plan = FaultPlan::random(1, 16, &FaultRates::default());
        assert!(plan.is_empty());
    }

    #[test]
    fn rate_one_hits_every_cell() {
        let rates = FaultRates {
            crash: 1.0,
            ..Default::default()
        };
        let plan = FaultPlan::random(3, 4, &rates);
        for phase in PhaseId::ALL {
            for rank in 0..4 {
                assert!(plan.crash_at(phase, rank));
            }
        }
    }

    #[test]
    fn cell_queries_only_match_their_cell() {
        let plan = FaultPlan::message_drops(PhaseId::ErrorRemoval, 2, 3);
        assert_eq!(plan.drops_at(PhaseId::ErrorRemoval, 2), 3);
        assert_eq!(plan.drops_at(PhaseId::ErrorRemoval, 1), 0);
        assert_eq!(plan.drops_at(PhaseId::Traversal, 2), 0);
        assert!(!plan.crash_at(PhaseId::ErrorRemoval, 2));
        assert_eq!(plan.delay_factor_at(PhaseId::ErrorRemoval, 2), 1.0);
    }

    #[test]
    fn factors_compose_multiplicatively() {
        let mut plan = FaultPlan::none();
        plan.push(FaultEvent {
            phase: PhaseId::Traversal,
            rank: 0,
            kind: FaultKind::Straggle { factor: 2.0 },
        });
        plan.push(FaultEvent {
            phase: PhaseId::Traversal,
            rank: 0,
            kind: FaultKind::Straggle { factor: 3.0 },
        });
        assert_eq!(plan.straggle_factor_at(PhaseId::Traversal, 0), 6.0);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff_delay(1), 10.0);
        assert_eq!(backoff_delay(2), 20.0);
        assert_eq!(backoff_delay(5), 160.0);
        assert_eq!(backoff_delay(6), 160.0); // capped (would be 320)
        assert_eq!(backoff_delay(100), 160.0);
    }

    #[test]
    fn rates_validation() {
        assert!(FaultRates::default().validate().is_ok());
        assert!(FaultRates {
            crash: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(FaultRates {
            delay_factor: 0.5,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn phase_names_are_stable() {
        assert_eq!(
            PhaseId::ALL.map(PhaseId::name),
            [
                "transitive_reduction",
                "containment_removal",
                "error_removal",
                "traversal",
            ]
        );
    }
}
