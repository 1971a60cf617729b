//! Offline stand-in for `crossbeam` 0.8, patched in by
//! `benchmark/Cargo.toml`. Only `deque::{Injector, Worker, Stealer, Steal}`
//! exist, each a mutexed `VecDeque`: fc-exec hands out tens of coarse
//! chunks per batch and merges results in canonical order, so queue
//! throughput is not on any measured path.

pub mod deque {
    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex, MutexGuard};

    type Queue<T> = Arc<Mutex<VecDeque<T>>>;

    fn lock<T>(q: &Mutex<VecDeque<T>>) -> MutexGuard<'_, VecDeque<T>> {
        // A poisoned queue still holds valid tasks: every update is one
        // push or pop.
        q.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Outcome of a steal attempt.
    #[derive(Debug)]
    pub enum Steal<T> {
        Empty,
        Success(T),
        Retry,
    }

    fn steal_front<T>(q: &Mutex<VecDeque<T>>) -> Steal<T> {
        match lock(q).pop_front() {
            Some(task) => Steal::Success(task),
            None => Steal::Empty,
        }
    }

    /// The shared entry queue.
    #[derive(Debug)]
    pub struct Injector<T>(Mutex<VecDeque<T>>);

    impl<T> Default for Injector<T> {
        fn default() -> Injector<T> {
            Injector(Mutex::new(VecDeque::new()))
        }
    }

    impl<T> Injector<T> {
        pub fn new() -> Injector<T> {
            Injector::default()
        }

        pub fn push(&self, task: T) {
            lock(&self.0).push_back(task);
        }

        /// Takes one task (the published crate also moves a batch into
        /// `_dest`; one at a time balances coarse chunks at least as well).
        pub fn steal_batch_and_pop(&self, _dest: &Worker<T>) -> Steal<T> {
            steal_front(&self.0)
        }
    }

    /// A worker's own FIFO queue.
    #[derive(Debug)]
    pub struct Worker<T>(Queue<T>);

    impl<T> Worker<T> {
        pub fn new_fifo() -> Worker<T> {
            Worker(Arc::new(Mutex::new(VecDeque::new())))
        }

        pub fn pop(&self) -> Option<T> {
            lock(&self.0).pop_front()
        }

        pub fn stealer(&self) -> Stealer<T> {
            Stealer(Arc::clone(&self.0))
        }
    }

    /// A handle other workers steal through.
    #[derive(Debug)]
    pub struct Stealer<T>(Queue<T>);

    impl<T> Stealer<T> {
        pub fn steal(&self) -> Steal<T> {
            steal_front(&self.0)
        }
    }
}
