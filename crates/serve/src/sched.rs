//! Bounded multi-tenant admission control and fair dispatch.
//!
//! The scheduler is a *pure* data structure: no clocks, no randomness, no
//! I/O. Given the same sequence of [`Scheduler::admit`] / [`Scheduler::dispatch`]
//! / [`Scheduler::cancel`] calls it produces the same sequence of outcomes,
//! which is what makes backpressure testable (`tests/props.rs` replays
//! seeded arrival schedules) and the server resumable (after a crash the
//! recovered jobs are re-admitted in job-id order, reproducing the queue).
//!
//! ## State machine
//!
//! ```text
//!   admit ──► Queued ──dispatch()──► (dispatched, leaves the scheduler)
//!     │          │
//!     │          ├─cancel()──► removed
//!     │          └─displaced─► Shed (reported to the admitting caller)
//!     └──► Rejected{TenantQueueFull | Saturated | TooManyTenants | Closed}
//! ```
//!
//! Fairness is deficit-round-robin with unit job cost: a cursor rotates
//! over tenants, granting each up to `quantum` consecutive dispatches per
//! visit, so in any window of `tenants × quantum` dispatches every backlogged
//! tenant is served at least once. Within a tenant, higher priorities
//! dispatch first and FIFO order breaks ties.
//!
//! Every queue is bounded: per-tenant queues by `per_tenant_capacity`,
//! their sum by `total_capacity`, and the tenant table by `max_tenants`.

#![expect(
    clippy::disallowed_types,
    reason = "every VecDeque here is bounded by per_tenant_capacity and total_capacity"
)]

use crate::job::{JobId, Priority};
use std::collections::VecDeque;

/// Capacity bounds and fairness quantum for a [`Scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Maximum queued (not yet dispatched) jobs per tenant.
    pub per_tenant_capacity: usize,
    /// Maximum queued jobs across all tenants.
    pub total_capacity: usize,
    /// Maximum distinct tenant names the scheduler will track.
    pub max_tenants: usize,
    /// Consecutive dispatches granted to a tenant per round-robin visit.
    pub quantum: u32,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            per_tenant_capacity: 32,
            total_capacity: 256,
            max_tenants: 64,
            quantum: 4,
        }
    }
}

impl SchedConfig {
    /// Clamps degenerate values (zeroes) up to the smallest useful bound so
    /// a scheduler can always make progress.
    pub fn sanitized(mut self) -> Self {
        self.per_tenant_capacity = self.per_tenant_capacity.max(1);
        self.total_capacity = self.total_capacity.max(1);
        self.max_tenants = self.max_tenants.max(1);
        self.quantum = self.quantum.max(1);
        self
    }
}

/// Why an arrival was refused. Every variant maps to a stable wire `kind`
/// and an HTTP status; rejections are values, not errors, so the server can
/// count them and answer with a typed body instead of dropping work silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// The tenant's own queue is full.
    TenantQueueFull {
        /// Jobs currently queued for this tenant.
        depth: usize,
        /// The per-tenant bound that was hit.
        capacity: usize,
    },
    /// The global queue is full and no lower-priority victim exists to shed.
    Saturated {
        /// Jobs currently queued across all tenants.
        depth: usize,
        /// The global bound that was hit.
        capacity: usize,
    },
    /// The tenant table is full and this name is new.
    TooManyTenants {
        /// Tenants currently tracked.
        tenants: usize,
        /// The tenant-table bound that was hit.
        max_tenants: usize,
    },
    /// Admitting this job would overrun the server's memory budget; the
    /// load is shed until running jobs release their reservations.
    MemoryPressure {
        /// Coarse resident-set estimate for the refused job, bytes.
        requested: u64,
        /// Bytes still unreserved under the budget.
        available: u64,
    },
    /// The server is shutting down and no longer admits work.
    Closed,
}

impl Rejection {
    /// Stable machine-readable reason, used in HTTP bodies and metric names.
    pub fn kind(&self) -> &'static str {
        match self {
            Rejection::TenantQueueFull { .. } => "tenant_queue_full",
            Rejection::Saturated { .. } => "saturated",
            Rejection::TooManyTenants { .. } => "too_many_tenants",
            Rejection::MemoryPressure { .. } => "memory_pressure",
            Rejection::Closed => "closed",
        }
    }

    /// HTTP status the server answers with: 429 for backpressure (the
    /// client should slow down), 503 for shed load (memory pressure,
    /// shutdown) where retrying later can succeed without the client
    /// changing anything.
    pub fn http_status(&self) -> u16 {
        match self {
            Rejection::Closed | Rejection::MemoryPressure { .. } => 503,
            _ => 429,
        }
    }
}

/// A queued job displaced by a higher-priority arrival under saturation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShedJob {
    /// The displaced job.
    pub id: JobId,
    /// Tenant that owned it.
    pub tenant: String,
    /// Its (lower) priority.
    pub priority: Priority,
}

/// Result of [`Scheduler::admit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// The job is queued; if admission displaced a lower-priority job under
    /// saturation, the victim is reported so the caller can finalize it.
    Queued {
        /// The job shed to make room, if any.
        shed: Option<ShedJob>,
    },
    /// The job was refused with a typed reason.
    Rejected(Rejection),
}

/// One queued job. `seq` is the global admission sequence number, used for
/// FIFO tie-breaks and for picking the *newest* victim when shedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    id: JobId,
    seq: u64,
}

/// Per-tenant state: one FIFO per priority level.
#[derive(Debug)]
struct Tenant {
    name: String,
    /// Indexed by [`Priority::index`]; each queue is bounded because the
    /// priorities' combined depth never exceeds `per_tenant_capacity`
    /// (enforced in [`Scheduler::admit`]).
    queues: [VecDeque<Entry>; 3],
}

impl Tenant {
    fn depth(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }
}

/// Deterministic bounded deficit-round-robin scheduler. See the module docs
/// for the state machine and fairness bound.
#[derive(Debug)]
pub struct Scheduler {
    cfg: SchedConfig,
    /// Tenant table, bounded by `cfg.max_tenants` (enforced in `admit`);
    /// entries persist for the scheduler's lifetime so gauge names and
    /// round-robin order stay stable.
    tenants: Vec<Tenant>,
    /// Round-robin cursor into `tenants`.
    cursor: usize,
    /// Dispatches remaining in the current tenant's quantum burst.
    burst: u32,
    /// Next global admission sequence number.
    seq: u64,
    /// Cached total queued depth (= sum of tenant depths).
    queued: usize,
    /// When true every admission is rejected with [`Rejection::Closed`].
    closed: bool,
}

impl Scheduler {
    /// Creates a scheduler with the given (sanitized) bounds.
    pub fn new(cfg: SchedConfig) -> Self {
        let cfg = cfg.sanitized();
        Scheduler {
            burst: cfg.quantum,
            cfg,
            tenants: Vec::new(),
            cursor: 0,
            seq: 0,
            queued: 0,
            closed: false,
        }
    }

    /// The (sanitized) configuration this scheduler runs under.
    pub fn config(&self) -> SchedConfig {
        self.cfg
    }

    /// Total jobs currently queued.
    pub fn total_depth(&self) -> usize {
        self.queued
    }

    /// Iterates `(tenant, queued_depth)` over every tenant ever admitted.
    pub fn tenant_depths(&self) -> impl Iterator<Item = (&str, usize)> {
        self.tenants.iter().map(|t| (t.name.as_str(), t.depth()))
    }

    /// Stops admitting: every subsequent [`Scheduler::admit`] call returns
    /// [`Rejection::Closed`]. Queued jobs still dispatch via `dispatch`.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Non-mutating preview of the [`Scheduler::admit`] decision ladder:
    /// returns the rejection `admit` would produce right now, or `None` if
    /// it would queue. Servers use it to refuse doomed submissions before
    /// paying for persistence; `admit` remains authoritative.
    pub fn would_reject(&self, tenant: &str, priority: Priority) -> Option<Rejection> {
        if self.closed {
            return Some(Rejection::Closed);
        }
        match self.tenants.iter().find(|t| t.name == tenant) {
            Some(t) => {
                let depth = t.depth();
                if depth >= self.cfg.per_tenant_capacity {
                    return Some(Rejection::TenantQueueFull {
                        depth,
                        capacity: self.cfg.per_tenant_capacity,
                    });
                }
            }
            None => {
                if self.tenants.len() >= self.cfg.max_tenants {
                    return Some(Rejection::TooManyTenants {
                        tenants: self.tenants.len(),
                        max_tenants: self.cfg.max_tenants,
                    });
                }
            }
        }
        if self.queued >= self.cfg.total_capacity {
            let victim_exists = (0..priority.index())
                .any(|level| self.tenants.iter().any(|t| !t.queues[level].is_empty()));
            if !victim_exists {
                return Some(Rejection::Saturated {
                    depth: self.queued,
                    capacity: self.cfg.total_capacity,
                });
            }
        }
        None
    }

    /// Offers a job for admission. See the module docs for the decision
    /// ladder, which [`Scheduler::would_reject`] decides; `admit` then
    /// sheds the victim the global bound needs, if any, and queues the job.
    pub fn admit(&mut self, tenant: &str, id: JobId, priority: Priority) -> AdmitOutcome {
        if let Some(rejection) = self.would_reject(tenant, priority) {
            return AdmitOutcome::Rejected(rejection);
        }
        // At the global bound `would_reject` found a victim to shed.
        let shed = if self.queued >= self.cfg.total_capacity {
            self.shed_victim(priority)
        } else {
            None
        };
        let existing = self.tenants.iter().position(|t| t.name == tenant);
        // Admission is now certain; only here may a new tenant consume a
        // table slot, so a Saturated rejection never leaks one (tenant
        // entries are permanent once created — see the field docs).
        let idx = existing.unwrap_or_else(|| {
            self.tenants.push(Tenant {
                name: tenant.to_string(),
                // Each queue is bounded: `would_reject`'s per-tenant depth
                // check runs before any push into it.
                queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            });
            self.tenants.len() - 1
        });
        let seq = self.seq;
        self.seq += 1;
        self.tenants[idx].queues[priority.index()].push_back(Entry { id, seq });
        self.queued += 1;
        AdmitOutcome::Queued { shed }
    }

    /// Removes and returns the newest queued job of the lowest priority
    /// strictly below `incoming`, or `None` when no such victim exists.
    fn shed_victim(&mut self, incoming: Priority) -> Option<ShedJob> {
        for level in 0..incoming.index() {
            let mut best: Option<(usize, usize, u64)> = None; // (tenant, pos, seq)
            for (ti, t) in self.tenants.iter().enumerate() {
                for (pos, e) in t.queues[level].iter().enumerate() {
                    if best.is_none_or(|(_, _, s)| e.seq > s) {
                        best = Some((ti, pos, e.seq));
                    }
                }
            }
            if let Some((ti, pos, _)) = best {
                let priority = Priority::ALL[level];
                let entry = self.tenants[ti].queues[level].remove(pos)?;
                self.queued -= 1;
                return Some(ShedJob {
                    id: entry.id,
                    tenant: self.tenants[ti].name.clone(),
                    priority,
                });
            }
        }
        None
    }

    /// Dispatches the next job under deficit round-robin, or `None` when
    /// nothing is queued. One job per call.
    pub fn dispatch(&mut self) -> Option<JobId> {
        if self.tenants.is_empty() || self.queued == 0 {
            return None;
        }
        // Scan at most one full rotation plus the current (possibly
        // exhausted-burst) tenant; `queued > 0` guarantees a hit.
        for _ in 0..=self.tenants.len() {
            if self.cursor >= self.tenants.len() {
                self.cursor = 0;
            }
            let has_work = self.tenants[self.cursor].depth() > 0;
            if !has_work || self.burst == 0 {
                self.cursor = (self.cursor + 1) % self.tenants.len();
                self.burst = self.cfg.quantum;
                continue;
            }
            let t = &mut self.tenants[self.cursor];
            for level in (0..Priority::ALL.len()).rev() {
                if let Some(entry) = t.queues[level].pop_front() {
                    self.burst -= 1;
                    self.queued -= 1;
                    return Some(entry.id);
                }
            }
        }
        None
    }

    /// Removes a queued job (e.g. user cancellation). Returns the tenant it
    /// was queued under, or `None` if the job is not queued (already
    /// dispatched, shed, or unknown).
    pub fn cancel(&mut self, id: JobId) -> Option<String> {
        for t in &mut self.tenants {
            for q in &mut t.queues {
                if let Some(pos) = q.iter().position(|e| e.id == id) {
                    q.remove(pos);
                    self.queued -= 1;
                    return Some(t.name.clone());
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(per_tenant: usize, total: usize, tenants: usize, quantum: u32) -> SchedConfig {
        SchedConfig {
            per_tenant_capacity: per_tenant,
            total_capacity: total,
            max_tenants: tenants,
            quantum,
        }
    }

    fn queued(outcome: AdmitOutcome) -> Option<ShedJob> {
        match outcome {
            AdmitOutcome::Queued { shed } => shed,
            AdmitOutcome::Rejected(r) => panic!("expected Queued, got {r:?}"),
        }
    }

    fn rejected(outcome: AdmitOutcome) -> Rejection {
        match outcome {
            AdmitOutcome::Rejected(r) => r,
            other => panic!("expected Rejected, got {other:?}"),
        }
    }

    #[test]
    fn per_tenant_bound_rejects_with_depth() {
        let mut s = Scheduler::new(cfg(2, 100, 4, 1));
        assert!(queued(s.admit("a", JobId(1), Priority::Normal)).is_none());
        assert!(queued(s.admit("a", JobId(2), Priority::Normal)).is_none());
        let r = rejected(s.admit("a", JobId(3), Priority::Normal));
        assert_eq!(
            r,
            Rejection::TenantQueueFull {
                depth: 2,
                capacity: 2
            }
        );
        assert_eq!(r.kind(), "tenant_queue_full");
        assert_eq!(r.http_status(), 429);
    }

    #[test]
    fn global_bound_rejects_when_no_victim() {
        let mut s = Scheduler::new(cfg(8, 2, 4, 1));
        assert!(queued(s.admit("a", JobId(1), Priority::Normal)).is_none());
        assert!(queued(s.admit("b", JobId(2), Priority::Normal)).is_none());
        // Same priority: nothing strictly lower to shed.
        let r = rejected(s.admit("c", JobId(3), Priority::Normal));
        assert_eq!(
            r,
            Rejection::Saturated {
                depth: 2,
                capacity: 2
            }
        );
    }

    #[test]
    fn high_priority_sheds_newest_lowest() {
        let mut s = Scheduler::new(cfg(8, 2, 4, 1));
        assert!(queued(s.admit("a", JobId(1), Priority::Low)).is_none());
        assert!(queued(s.admit("b", JobId(2), Priority::Low)).is_none());
        let shed = queued(s.admit("c", JobId(3), Priority::High)).expect("victim");
        assert_eq!(shed.id, JobId(2), "newest low-priority job is shed");
        assert_eq!(shed.tenant, "b");
        assert_eq!(shed.priority, Priority::Low);
        assert_eq!(s.total_depth(), 2);
        // The shed victim is gone. Dispatch is round-robin across tenants
        // (priority orders only *within* a tenant), so tenant a's low job
        // still goes first — fairness is not globally preempted.
        assert_eq!(s.dispatch(), Some(JobId(1)));
        assert_eq!(s.dispatch(), Some(JobId(3)));
        assert_eq!(s.dispatch(), None);
    }

    #[test]
    fn tenant_table_is_bounded() {
        let mut s = Scheduler::new(cfg(8, 100, 2, 1));
        assert!(queued(s.admit("a", JobId(1), Priority::Normal)).is_none());
        assert!(queued(s.admit("b", JobId(2), Priority::Normal)).is_none());
        let r = rejected(s.admit("c", JobId(3), Priority::Normal));
        assert_eq!(
            r,
            Rejection::TooManyTenants {
                tenants: 2,
                max_tenants: 2
            }
        );
        // Known tenants still admit.
        assert!(queued(s.admit("a", JobId(4), Priority::Normal)).is_none());
    }

    #[test]
    fn saturated_rejection_does_not_leak_a_tenant_slot() {
        let mut s = Scheduler::new(cfg(4, 1, 2, 1));
        assert!(queued(s.admit("a", JobId(1), Priority::Normal)).is_none());
        // Saturated, no lower-priority victim: the unknown tenant "b" is
        // rejected and must not consume one of the two table slots.
        let r = rejected(s.admit("b", JobId(2), Priority::Normal));
        assert!(matches!(r, Rejection::Saturated { .. }), "{r:?}");
        assert_eq!(s.tenant_depths().count(), 1, "tenant slot leaked");
        // Once capacity frees, a *different* new tenant can still take the
        // last slot — the rejected name did not lock it out.
        assert_eq!(s.dispatch(), Some(JobId(1)));
        assert!(queued(s.admit("c", JobId(3), Priority::Normal)).is_none());
        assert_eq!(s.tenant_depths().count(), 2);
    }

    #[test]
    fn round_robin_interleaves_tenants_by_quantum() {
        let mut s = Scheduler::new(cfg(8, 100, 4, 2));
        for i in 0..4 {
            assert!(queued(s.admit("a", JobId(i), Priority::Normal)).is_none());
            assert!(queued(s.admit("b", JobId(100 + i), Priority::Normal)).is_none());
        }
        let order: Vec<u64> = std::iter::from_fn(|| s.dispatch()).map(|j| j.0).collect();
        assert_eq!(order, vec![0, 1, 100, 101, 2, 3, 102, 103]);
    }

    #[test]
    fn priority_orders_within_a_tenant() {
        let mut s = Scheduler::new(cfg(8, 100, 4, 8));
        assert!(queued(s.admit("a", JobId(1), Priority::Low)).is_none());
        assert!(queued(s.admit("a", JobId(2), Priority::High)).is_none());
        assert!(queued(s.admit("a", JobId(3), Priority::Normal)).is_none());
        assert!(queued(s.admit("a", JobId(4), Priority::High)).is_none());
        let order: Vec<u64> = std::iter::from_fn(|| s.dispatch()).map(|j| j.0).collect();
        assert_eq!(order, vec![2, 4, 3, 1]);
    }

    #[test]
    fn cancel_removes_only_queued_jobs() {
        let mut s = Scheduler::new(cfg(8, 100, 4, 1));
        assert!(queued(s.admit("a", JobId(1), Priority::Normal)).is_none());
        assert!(queued(s.admit("a", JobId(2), Priority::Normal)).is_none());
        assert_eq!(s.cancel(JobId(1)).as_deref(), Some("a"));
        assert_eq!(s.cancel(JobId(1)), None, "already removed");
        assert_eq!(s.dispatch(), Some(JobId(2)));
        assert_eq!(s.cancel(JobId(2)), None, "already dispatched");
    }

    #[test]
    fn close_rejects_new_work_but_drains_queued() {
        let mut s = Scheduler::new(cfg(8, 100, 4, 1));
        assert!(queued(s.admit("a", JobId(1), Priority::Normal)).is_none());
        s.close();
        let r = rejected(s.admit("a", JobId(2), Priority::Normal));
        assert_eq!(r, Rejection::Closed);
        assert_eq!(r.http_status(), 503);
        assert_eq!(s.dispatch(), Some(JobId(1)));
    }

    #[test]
    fn would_reject_previews_admit() {
        let mut s = Scheduler::new(cfg(1, 2, 2, 1));
        assert_eq!(s.would_reject("a", Priority::Normal), None);
        assert!(queued(s.admit("a", JobId(1), Priority::Normal)).is_none());
        assert!(matches!(
            s.would_reject("a", Priority::Normal),
            Some(Rejection::TenantQueueFull { .. })
        ));
        assert!(queued(s.admit("b", JobId(2), Priority::Low)).is_none());
        assert!(matches!(
            s.would_reject("c", Priority::Normal),
            Some(Rejection::TooManyTenants { .. })
        ));
        // Saturated for same-or-lower priority, admissible with a victim.
        let mut s = Scheduler::new(cfg(4, 1, 4, 1));
        assert!(queued(s.admit("a", JobId(1), Priority::Low)).is_none());
        assert!(matches!(
            s.would_reject("b", Priority::Low),
            Some(Rejection::Saturated { .. })
        ));
        assert_eq!(s.would_reject("b", Priority::High), None);
        s.close();
        assert_eq!(s.would_reject("b", Priority::High), Some(Rejection::Closed));
    }

    #[test]
    fn sanitize_lifts_zero_bounds() {
        let s = Scheduler::new(cfg(0, 0, 0, 0));
        let c = s.config();
        assert!(c.per_tenant_capacity >= 1 && c.total_capacity >= 1);
        assert!(c.max_tenants >= 1 && c.quantum >= 1);
    }
}
