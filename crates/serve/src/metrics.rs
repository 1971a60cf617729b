//! Metric names and the bounded per-tenant gauge-name interner.
//!
//! fc-obs metric names are `&'static str` (so the hot path never hashes
//! owned strings). Per-tenant gauge names are therefore interned once via
//! `Box::leak` — a deliberate, *bounded* leak: the interner refuses names
//! beyond its capacity, which the server sets to the scheduler's
//! `max_tenants`, so a hostile client cannot grow process memory by
//! inventing tenant names.

use fc_obs::sync::{Mutex, Rank};

/// Counter: jobs admitted (queued).
pub const JOBS_ADMITTED: &str = "serve.jobs.admitted";
/// Counter: jobs completed successfully.
pub const JOBS_COMPLETED: &str = "serve.jobs.completed";
/// Counter: jobs that failed permanently.
pub const JOBS_FAILED: &str = "serve.jobs.failed";
/// Counter: jobs shed under saturation.
pub const JOBS_SHED: &str = "serve.jobs.shed";
/// Counter: jobs canceled by clients or shutdown.
pub const JOBS_CANCELED: &str = "serve.jobs.canceled";
/// Counter: in-flight jobs re-admitted after a restart.
pub const JOBS_RESUMED: &str = "serve.jobs.resumed";
/// Counter: jobs that missed their deadline before dispatch/completion.
pub const JOBS_DEADLINE: &str = "serve.jobs.deadline_exceeded";
/// Counter: torn (unacknowledged) job dirs removed at startup.
pub const STATE_TORN: &str = "serve.state.torn_removed";
/// Counter: ended jobs whose status record could not be read at startup.
pub const STATE_UNREADABLE: &str = "serve.state.unreadable_status";
/// Counter: HTTP requests handled.
pub const HTTP_REQUESTS: &str = "serve.http.requests";
/// Counter: HTTP protocol errors answered with 4xx.
pub const HTTP_ERRORS: &str = "serve.http.errors";
/// Counter: job thread requests clamped to available parallelism.
pub const THREADS_CLAMPED: &str = "serve.threads.clamped";
/// Gauge: total queued jobs.
pub const QUEUE_DEPTH: &str = "serve.queue.depth";
/// Gauge: jobs currently executing.
pub const RUNNING: &str = "serve.jobs.running";
/// Gauge: bytes reserved for admitted jobs under the memory budget.
pub const MEM_RESERVED: &str = "serve.mem.reserved";
/// Gauge: the configured memory budget, bytes (0 when unlimited).
pub const MEM_LIMIT: &str = "serve.mem.limit";
/// Histogram: admission → terminal-status latency, milliseconds.
pub const JOB_LATENCY_MS: &str = "serve.job.latency_ms";
/// Histogram: admission → dispatch queue delay, milliseconds.
pub const JOB_QUEUE_MS: &str = "serve.job.queue_ms";

/// Millisecond-scale histogram bounds for job latency/queue delay.
pub const LATENCY_BOUNDS_MS: &[u64] = &[
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 30_000, 60_000,
];

/// Counter name for a rejection kind (see `Rejection::kind`).
pub fn rejection_counter(kind: &str) -> &'static str {
    match kind {
        "tenant_queue_full" => "serve.jobs.rejected.tenant_queue_full",
        "saturated" => "serve.jobs.rejected.saturated",
        "too_many_tenants" => "serve.jobs.rejected.too_many_tenants",
        "memory_pressure" => "serve.jobs.rejected.memory_pressure",
        "closed" => "serve.jobs.rejected.closed",
        _ => "serve.jobs.rejected.other",
    }
}

/// Interns `serve.queue.depth.<tenant>` gauge names, at most `capacity`
/// of them for the process lifetime (the bound that makes the `Box::leak`
/// safe against adversarial tenant names).
#[derive(Debug)]
pub struct TenantNames {
    capacity: usize,
    /// Interned `(tenant, leaked_name)` pairs; bounded by `capacity`.
    names: Mutex<Vec<(String, &'static str)>>,
}

impl TenantNames {
    /// An interner that will hold at most `capacity` tenant names.
    pub fn new(capacity: usize) -> TenantNames {
        TenantNames {
            capacity,
            names: Mutex::new(Rank::TenantNames, Vec::new()),
        }
    }

    /// The gauge name for a tenant's queue depth, interning it on first
    /// use. Returns `None` once the interner is full (callers then skip
    /// the per-tenant gauge; counters and the global gauge still work).
    pub fn depth_gauge(&self, tenant: &str) -> Option<&'static str> {
        let mut names = self.names.lock();
        if let Some((_, name)) = names.iter().find(|(t, _)| t == tenant) {
            return Some(name);
        }
        if names.len() >= self.capacity {
            return None;
        }
        let leaked: &'static str =
            Box::leak(format!("serve.queue.depth.{tenant}").into_boxed_str());
        names.push((tenant.to_string(), leaked));
        Some(leaked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_reuses_and_bounds_names() {
        let names = TenantNames::new(2);
        let a1 = names.depth_gauge("alice").expect("first");
        let a2 = names.depth_gauge("alice").expect("again");
        assert!(std::ptr::eq(a1.as_ptr(), a2.as_ptr()), "same interned str");
        assert_eq!(a1, "serve.queue.depth.alice");
        assert!(names.depth_gauge("bob").is_some());
        assert_eq!(names.depth_gauge("carol"), None, "capacity reached");
        assert!(names.depth_gauge("alice").is_some(), "existing still ok");
    }

    #[test]
    fn rejection_counters_are_stable() {
        assert_eq!(
            rejection_counter("saturated"),
            "serve.jobs.rejected.saturated"
        );
        assert_eq!(rejection_counter("??"), "serve.jobs.rejected.other");
    }
}
