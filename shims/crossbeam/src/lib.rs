//! Offline shim for the `crossbeam` API subset this workspace uses:
//! `crossbeam::deque::{Worker, Stealer, Injector, Steal}`, the
//! work-stealing deque surface the rayon shim's pool is built on.

pub mod deque {
    //! Work-stealing deques mirroring `crossbeam-deque`.
    //!
    //! Same ownership model as upstream — a [`Worker`] is the owning
    //! end of one queue, [`Stealer`]s are cloneable remote ends, and an
    //! [`Injector`] is a shared FIFO for external submission — but the
    //! storage is an honest `Mutex<VecDeque>` rather than upstream's
    //! lock-free Chase-Lev array. For the pool sizes this container
    //! runs (a handful of threads, coarse chunk-sized jobs) the lock is
    //! uncontended in practice; the API is what matters, so swapping in
    //! the real crate stays a `Cargo.toml` change.

    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex};

    /// Outcome of a steal attempt, mirroring `crossbeam_deque::Steal`.
    #[derive(Debug, PartialEq, Eq)]
    pub enum Steal<T> {
        /// The queue was empty.
        Empty,
        /// One task was stolen.
        Success(T),
        /// The attempt lost a race and may be retried.
        Retry,
    }

    impl<T> Steal<T> {
        /// Converts to `Option`, treating `Retry` as no task.
        pub fn success(self) -> Option<T> {
            match self {
                Steal::Success(t) => Some(t),
                _ => None,
            }
        }

        /// True if the queue was observed empty.
        pub fn is_empty(&self) -> bool {
            matches!(self, Steal::Empty)
        }
    }

    /// The owning end of one work-stealing queue (FIFO flavour).
    pub struct Worker<T> {
        q: Arc<Mutex<VecDeque<T>>>,
    }

    impl<T> Worker<T> {
        /// A new FIFO queue: `push` appends, `pop` and steals take from
        /// the front, so owner and thieves drain in submission order.
        pub fn new_fifo() -> Self {
            Self {
                q: Arc::new(Mutex::new(VecDeque::new())),
            }
        }

        /// Enqueues a task.
        pub fn push(&self, t: T) {
            self.q.lock().unwrap().push_back(t);
        }

        /// Takes the owner-side next task.
        pub fn pop(&self) -> Option<T> {
            self.q.lock().unwrap().pop_front()
        }

        /// True if no task is queued.
        pub fn is_empty(&self) -> bool {
            self.q.lock().unwrap().is_empty()
        }

        /// A remote (stealing) handle onto this queue.
        pub fn stealer(&self) -> Stealer<T> {
            Stealer { q: self.q.clone() }
        }
    }

    /// A remote handle that steals from a [`Worker`]'s queue.
    pub struct Stealer<T> {
        q: Arc<Mutex<VecDeque<T>>>,
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Self {
            Stealer { q: self.q.clone() }
        }
    }

    impl<T> Stealer<T> {
        /// Attempts to steal the front task.
        pub fn steal(&self) -> Steal<T> {
            match self.q.lock().unwrap().pop_front() {
                Some(t) => Steal::Success(t),
                None => Steal::Empty,
            }
        }
    }

    /// A shared FIFO every thread may push to and steal from.
    #[derive(Default)]
    pub struct Injector<T> {
        q: Mutex<VecDeque<T>>,
    }

    impl<T> Injector<T> {
        /// An empty injector.
        pub fn new() -> Self {
            Self {
                q: Mutex::new(VecDeque::new()),
            }
        }

        /// Enqueues a task.
        pub fn push(&self, t: T) {
            self.q.lock().unwrap().push_back(t);
        }

        /// Attempts to steal the front task.
        pub fn steal(&self) -> Steal<T> {
            match self.q.lock().unwrap().pop_front() {
                Some(t) => Steal::Success(t),
                None => Steal::Empty,
            }
        }

        /// True if no task is queued.
        pub fn is_empty(&self) -> bool {
            self.q.lock().unwrap().is_empty()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::deque::{Injector, Steal, Worker};

    #[test]
    fn worker_pushes_thieves_steal() {
        let w = Worker::new_fifo();
        let s = w.stealer();
        w.push(1);
        w.push(2);
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(w.pop(), Some(2));
        assert!(s.steal().is_empty());
        assert!(w.is_empty());
    }

    #[test]
    fn injector_is_shared_fifo() {
        let inj = Injector::new();
        std::thread::scope(|sc| {
            let inj = &inj;
            for t in 0..4 {
                sc.spawn(move || inj.push(t));
            }
        });
        let mut got: Vec<i32> = std::iter::from_fn(|| inj.steal().success()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert!(inj.is_empty());
    }
}
