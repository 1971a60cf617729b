//! Byte-accurate memory-budget accounting for the out-of-core pipeline.
//!
//! A [`MemoryBudget`] is a shared ledger of *reserved* bytes against an
//! optional hard limit. Pipeline phases reserve the bytes they are about
//! to allocate **before** allocating them ([`MemoryBudget::try_reserve`]);
//! a failed reservation is the typed signal to spill to disk (or surface
//! `BudgetExceeded`) instead of letting the allocator OOM the process.
//! Reservations are RAII: dropping a [`Reservation`] returns its bytes to
//! the ledger, so a phase's working set is released exactly when its data
//! structures go out of scope.
//!
//! The ledger is deliberately *not* wired to the recorder — it is a pure
//! accounting type usable from any crate. Callers that want observability
//! gauge `mem.budget.limit` / `mem.budget.used` / `mem.budget.peak`
//! themselves; those names live under the reserved `mem.` prefix so
//! logical-clock snapshots exclude them (budgets change peak memory, never
//! results).
//!
//! Accounting uses atomics only — reserving from worker threads never
//! takes a lock — and all arithmetic saturates: a release can never
//! underflow even if a caller forges byte counts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A reservation request that would exceed the budget's hard limit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetError {
    /// Label of the phase or structure that asked (e.g. `"read-store"`).
    pub label: &'static str,
    /// Bytes the caller asked for.
    pub requested: u64,
    /// Bytes already reserved when the request was made.
    pub used: u64,
    /// The hard limit in bytes.
    pub limit: u64,
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "memory budget exceeded: {} requested {} B with {} B of {} B already reserved",
            self.label, self.requested, self.used, self.limit
        )
    }
}

impl std::error::Error for BudgetError {}

#[derive(Debug, Default)]
struct Ledger {
    /// 0 means unlimited.
    limit: u64,
    used: AtomicU64,
    peak: AtomicU64,
}

/// A shared, thread-safe ledger of reserved bytes against an optional
/// hard limit. Cloning is cheap and all clones share one ledger.
#[derive(Debug, Clone, Default)]
pub struct MemoryBudget {
    ledger: Arc<Ledger>,
}

impl MemoryBudget {
    /// A budget with no limit: every reservation succeeds, but usage and
    /// peak are still tracked (useful for reporting).
    pub fn unlimited() -> MemoryBudget {
        MemoryBudget::default()
    }

    /// A budget with a hard limit of `limit_bytes`. A limit of 0 is
    /// treated as unlimited (use [`MemoryBudget::unlimited`] for clarity).
    pub fn with_limit(limit_bytes: u64) -> MemoryBudget {
        MemoryBudget {
            ledger: Arc::new(Ledger {
                limit: limit_bytes,
                used: AtomicU64::new(0),
                peak: AtomicU64::new(0),
            }),
        }
    }

    /// The hard limit in bytes, or `None` when unlimited.
    pub fn limit(&self) -> Option<u64> {
        (self.ledger.limit != 0).then_some(self.ledger.limit)
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> u64 {
        self.ledger.used.load(Ordering::Relaxed)
    }

    /// High-water mark of reserved bytes over the budget's lifetime.
    pub fn peak(&self) -> u64 {
        self.ledger.peak.load(Ordering::Relaxed)
    }

    /// Bytes still reservable, or `u64::MAX` when unlimited.
    pub fn remaining(&self) -> u64 {
        match self.limit() {
            None => u64::MAX,
            Some(limit) => limit.saturating_sub(self.used()),
        }
    }

    /// True when a reservation of `bytes` would succeed right now. A
    /// non-mutating preview for admission control; the answer can go
    /// stale, so committing still requires [`MemoryBudget::try_reserve`].
    pub fn would_fit(&self, bytes: u64) -> bool {
        bytes <= self.remaining()
    }

    /// Reserves `bytes` against the limit, or reports the typed overflow
    /// without changing the ledger. The returned [`Reservation`] releases
    /// the bytes when dropped.
    pub fn try_reserve(&self, label: &'static str, bytes: u64) -> Result<Reservation, BudgetError> {
        let ledger = &self.ledger;
        let mut used = ledger.used.load(Ordering::Relaxed);
        loop {
            let next = used.saturating_add(bytes);
            if ledger.limit != 0 && next > ledger.limit {
                return Err(BudgetError {
                    label,
                    requested: bytes,
                    used,
                    limit: ledger.limit,
                });
            }
            match ledger.used.compare_exchange_weak(
                used,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    ledger.peak.fetch_max(next, Ordering::Relaxed);
                    return Ok(Reservation {
                        budget: self.clone(),
                        bytes,
                        label,
                    });
                }
                Err(actual) => used = actual,
            }
        }
    }

    fn release(&self, bytes: u64) {
        let ledger = &self.ledger;
        let mut used = ledger.used.load(Ordering::Relaxed);
        loop {
            let next = used.saturating_sub(bytes);
            match ledger.used.compare_exchange_weak(
                used,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => used = actual,
            }
        }
    }
}

/// RAII handle for reserved bytes: dropping it returns the bytes to the
/// budget. Grow/shrink lets a phase track a structure whose exact size is
/// only known as it is built (e.g. a spill buffer).
#[derive(Debug)]
pub struct Reservation {
    budget: MemoryBudget,
    bytes: u64,
    label: &'static str,
}

impl Reservation {
    /// Bytes this reservation currently holds.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The label the reservation was made under.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Reserves `additional` more bytes under the same label, failing
    /// (and leaving the reservation unchanged) if that would exceed the
    /// limit.
    pub fn grow(&mut self, additional: u64) -> Result<(), BudgetError> {
        let extra = self.budget.try_reserve(self.label, additional)?;
        self.bytes = self.bytes.saturating_add(extra.bytes);
        std::mem::forget(extra);
        Ok(())
    }

    /// Returns `bytes` of this reservation to the budget (clamped to what
    /// the reservation holds).
    pub fn shrink(&mut self, bytes: u64) {
        let give_back = bytes.min(self.bytes);
        self.bytes -= give_back;
        self.budget.release(give_back);
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.budget.release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_reserves_and_tracks_peak() {
        let b = MemoryBudget::unlimited();
        assert_eq!(b.limit(), None);
        let r1 = b.try_reserve("a", 10).expect("unlimited");
        let r2 = b.try_reserve("b", 20).expect("unlimited");
        assert_eq!(b.used(), 30);
        assert_eq!(b.remaining(), u64::MAX);
        drop(r2);
        assert_eq!(b.used(), 10);
        drop(r1);
        assert_eq!(b.used(), 0);
        assert_eq!(b.peak(), 30);
        // Absurd requests saturate instead of wrapping.
        let r3 = b.try_reserve("c", u64::MAX).expect("unlimited saturates");
        assert_eq!(b.used(), u64::MAX);
        drop(r3);
    }

    #[test]
    fn limit_is_enforced_with_typed_overflow() {
        let b = MemoryBudget::with_limit(100);
        assert_eq!(b.limit(), Some(100));
        let r = b.try_reserve("store", 60).expect("fits");
        assert_eq!(b.remaining(), 40);
        assert!(b.would_fit(40));
        assert!(!b.would_fit(41));
        let err = b.try_reserve("index", 41).expect_err("over");
        assert_eq!(
            err,
            BudgetError {
                label: "index",
                requested: 41,
                used: 60,
                limit: 100
            }
        );
        assert!(err.to_string().contains("memory budget exceeded"));
        drop(r);
        assert_eq!(b.used(), 0);
        assert_eq!(b.peak(), 60);
        b.try_reserve("index", 41).expect("fits after release");
    }

    #[test]
    fn reservations_release_on_drop_and_grow_shrink() {
        let b = MemoryBudget::with_limit(100);
        let mut r = b.try_reserve("buf", 30).expect("fits");
        r.grow(50).expect("fits");
        assert_eq!(r.bytes(), 80);
        assert_eq!(b.used(), 80);
        assert!(r.grow(30).is_err(), "grow past limit must fail");
        assert_eq!(r.bytes(), 80, "failed grow leaves reservation unchanged");
        r.shrink(200);
        assert_eq!(r.bytes(), 0);
        assert_eq!(b.used(), 0);
        drop(r);
        assert_eq!(b.used(), 0, "double release must not underflow");
        assert_eq!(b.peak(), 80);
    }

    #[test]
    fn clones_share_one_ledger_across_threads() {
        let b = MemoryBudget::with_limit(1_000_000);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let b = b.clone();
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        let r = b.try_reserve("t", 7).expect("fits");
                        drop(r);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panics");
        }
        assert_eq!(b.used(), 0);
        assert!(b.peak() >= 7);
    }
}
