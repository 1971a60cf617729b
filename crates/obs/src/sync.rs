//! The ranked mutex. With `debug_assertions` each thread keeps the ranks it
//! holds, and a `lock()` out of [`Rank`] order fails a `debug_assert!` naming
//! both locks before it blocks; release builds keep no list.

#![expect(clippy::disallowed_types, reason = "the one wrapper of the std mutex")]

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, PoisonError, WaitTimeoutResult};
use std::time::Duration;

/// The lock-order table: every library lock, outer → inner. Holding one, a
/// thread may acquire only those after it, so no two threads can each hold
/// a lock the other waits for. fc-serve's job table (`/metrics` holds it
/// across `TenantNames` and `Metrics`) and tenant-name interner; fc-exec's
/// chunk queue and in-order delivery (released before the caller's sink
/// runs); the
/// recorder's span stacks, events and metrics; two interners.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rank {
    ServeCore,
    TenantNames,
    ExecQueue,
    ExecDelivery,
    SpanStacks,
    Events,
    Metrics,
    MetricNames,
    HistogramBounds,
}

/// A mutex with a [`Rank`]. [`Mutex::lock`] recovers a poisoned lock's
/// guard: every lock here guards data each update leaves valid, and one
/// panicking task must not wedge every later one.
#[derive(Debug)]
pub struct Mutex<T> {
    rank: Rank,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A lock at `rank` holding `value`.
    pub const fn new(rank: Rank, value: T) -> Mutex<T> {
        let inner = std::sync::Mutex::new(value);
        Mutex { rank, inner }
    }

    /// Blocks until the lock is free and takes it. Panics, with
    /// `debug_assertions`, if this thread holds a rank not below this one.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let held = Held::take(self.rank);
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        MutexGuard { inner, held }
    }
}

/// A held [`Mutex`]; dropping it unlocks and releases the rank.
pub struct MutexGuard<'a, T> {
    inner: std::sync::MutexGuard<'a, T>,
    held: Held,
}

impl<T> MutexGuard<'_, T> {
    /// [`Condvar::wait_timeout`]: the rank is released while the thread
    /// waits and taken back when it wakes.
    pub fn wait_timeout(self, cv: &Condvar, dur: Duration) -> (Self, WaitTimeoutResult) {
        let rank = self.held.release();
        let waited = cv.wait_timeout(self.inner, dur);
        let (inner, timeout) = waited.unwrap_or_else(PoisonError::into_inner);
        let held = Held::take(rank);
        (MutexGuard { inner, held }, timeout)
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// One rank on this thread's held list, taken off on drop.
struct Held(Rank);

#[cfg(debug_assertions)]
thread_local! {
    /// The ranks this thread holds, ascending.
    static HELD: std::cell::RefCell<Vec<Rank>> = const { std::cell::RefCell::new(Vec::new()) };
}

impl Held {
    fn take(rank: Rank) -> Held {
        #[cfg(debug_assertions)]
        HELD.with_borrow_mut(|held| {
            let top = held.last().copied().unwrap_or(rank);
            debug_assert!(
                held.is_empty() || rank > top,
                "lock order: acquiring {rank:?} while holding {top:?} \
                 (fc_obs::sync::Rank lists the locks outer to inner)"
            );
            held.push(rank);
        });
        Held(rank)
    }

    /// Takes the rank off this thread's list now, returning it.
    fn release(self) -> Rank {
        self.0
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        // Held ranks ascend strictly, so this removes exactly one entry.
        let _ = HELD.try_with(|held| held.borrow_mut().retain(|&r| r != self.0));
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Runs `f`, which must panic acquiring `rank` while holding `held`.
    fn refused(rank: &str, held: &str, f: impl FnOnce()) {
        let cause = catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
        let msg = cause.downcast_ref::<String>().cloned().unwrap_or_default();
        let want = format!("acquiring {rank} while holding {held}");
        assert!(msg.contains(&want), "{msg}");
    }

    #[test]
    fn ranks_ascend_and_drops_and_condvar_waits_release_them() {
        let (a, b) = (Mutex::new(Rank::ServeCore, 1), Mutex::new(Rank::Metrics, 2));
        assert_eq!(*a.lock() + *b.lock(), 3);
        refused("ServeCore", "Metrics", || drop((b.lock(), a.lock())));
        // The same lock again is not above itself: a self-deadlock panics.
        refused("Metrics", "Metrics", || drop((b.lock(), b.lock())));
        // Unwinding released every rank; a drop out of order keeps the rest.
        let (ga, gb) = (a.lock(), b.lock());
        drop(ga);
        refused("ServeCore", "Metrics", || drop(a.lock()));
        drop(gb);
        // A condvar wait gives the rank back exactly once.
        let (gb, waited) = b.lock().wait_timeout(&Condvar::new(), Duration::ZERO);
        assert!(waited.timed_out());
        refused("ServeCore", "Metrics", || drop(a.lock()));
        drop(gb);
        drop((a.lock(), b.lock()));
    }

    /// Locks nested through method calls: the inverted order panics at once.
    #[test]
    fn a_nesting_through_method_calls_in_the_wrong_order_panics() {
        struct S(Mutex<u32>);
        impl S {
            fn guard(&self) -> MutexGuard<'_, u32> {
                self.0.lock()
            }
            fn bump(&self, other: &S) {
                let mut g = self.guard();
                *g += *other.guard();
            }
        }
        let x = S(Mutex::new(Rank::ExecQueue, 1));
        let y = S(Mutex::new(Rank::ExecDelivery, 1));
        x.bump(&y);
        refused("ExecQueue", "ExecDelivery", || y.bump(&x));
    }
}
