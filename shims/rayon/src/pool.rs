//! The work-stealing pool behind the shim's par-iter consumers.
//!
//! One process-wide pool, sized by `SW_POOL_THREADS` (default 1). At
//! the default size no threads are spawned and every operation runs
//! inline on the caller, so single-threaded behaviour — and every
//! committed baseline measured under it — is unchanged. At size `W`
//! the pool spawns `W - 1` workers; the submitting thread participates
//! as the `W`-th, executing stolen jobs while it waits, which also
//! makes nested parallel operations deadlock-free.
//!
//! Topology is the classic crossbeam-deque shape: a shared
//! [`Injector`] receives submitted jobs, each worker owns a local
//! [`Worker`] deque it batches injector jobs into, and every thread
//! (submitter included) steals from the injector and from other
//! workers' [`Stealer`]s when its own sources run dry.
//!
//! Panics inside a job are caught, stashed on the operation, and
//! re-raised on the submitting thread once the operation drains.

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// Chunks handed out per pool thread; >1 so early-finishing threads
/// have leftovers to steal.
const CHUNKS_PER_THREAD: usize = 4;

/// One fan-out operation: the lifetime-erased chunk body plus a
/// completion latch and the first captured panic.
struct Op {
    /// Erased `&'scope (dyn Fn(usize) + Sync)`; valid until `remaining`
    /// reaches zero because the submitting frame blocks on the latch.
    body: *const (dyn Fn(usize) + Sync),
    remaining: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: `body` is only dereferenced while the submitting stack frame
// (which owns the pointee) is blocked in `PoolCore::run`.
unsafe impl Send for Op {}
unsafe impl Sync for Op {}

/// One schedulable unit: chunk `idx` of operation `op`.
struct Job {
    op: Arc<Op>,
    idx: usize,
}

impl Job {
    fn run(self) {
        // SAFETY: see `Op::body`.
        let body = unsafe { &*self.op.body };
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| body(self.idx))) {
            *self.op.panic.lock().unwrap() = Some(p);
        }
        if self.op.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            *self.op.done.lock().unwrap() = true;
            self.op.done_cv.notify_all();
        }
    }
}

struct Shared {
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    sleep: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
}

/// A work-stealing pool of `threads - 1` workers plus the submitter.
pub(crate) struct PoolCore {
    shared: Arc<Shared>,
    threads: usize,
}

impl PoolCore {
    /// Spawns `threads - 1` parked workers (no-op pool for `threads <= 1`).
    pub(crate) fn new(threads: usize) -> Self {
        let workers: Vec<Worker<Job>> =
            (0..threads.saturating_sub(1)).map(|_| Worker::new_fifo()).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers: workers.iter().map(|w| w.stealer()).collect(),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        for (i, local) in workers.into_iter().enumerate() {
            let sh = shared.clone();
            std::thread::Builder::new()
                .name(format!("sw-pool-{i}"))
                .spawn(move || worker_loop(i, local, sh))
                .expect("failed to spawn pool worker");
        }
        Self { shared, threads }
    }

    /// Configured thread count (workers + submitter).
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `body(0) .. body(n-1)` across the pool, returning once all
    /// calls finished. The submitting thread helps by executing stolen
    /// jobs while it waits. A panic in any call resurfaces here.
    pub(crate) fn run(&self, n: usize, body: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        // Erase the borrow lifetime; sound because this frame blocks
        // until every job (the only derefs) has completed.
        let body: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };
        let op = Arc::new(Op {
            body,
            remaining: AtomicUsize::new(n),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        for idx in 0..n {
            self.shared.injector.push(Job { op: op.clone(), idx });
        }
        self.shared.wake.notify_all();
        while op.remaining.load(Ordering::Acquire) != 0 {
            if let Some(job) = steal_any(&self.shared) {
                job.run();
            } else {
                // Our remaining jobs are in flight on workers: sleep on
                // the latch (timeout bounds a lost notify race).
                let guard = op.done.lock().unwrap();
                if !*guard {
                    let _ = op
                        .done_cv
                        .wait_timeout(guard, Duration::from_millis(1))
                        .unwrap();
                }
            }
        }
        let panicked = op.panic.lock().unwrap().take();
        if let Some(p) = panicked {
            resume_unwind(p);
        }
    }
}

impl Drop for PoolCore {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake.notify_all();
    }
}

fn worker_loop(me: usize, local: Worker<Job>, sh: Arc<Shared>) {
    loop {
        if sh.shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Some(job) = local.pop().or_else(|| take_batch(&sh, me, &local)) {
            job.run();
            continue;
        }
        let guard = sh.sleep.lock().unwrap();
        let _ = sh.wake.wait_timeout(guard, Duration::from_millis(5)).unwrap();
    }
}

/// Worker-side acquisition: drain a small batch from the injector into
/// the local deque (so siblings can steal the surplus back), else steal
/// from a sibling.
fn take_batch(sh: &Shared, me: usize, local: &Worker<Job>) -> Option<Job> {
    if let Steal::Success(job) = sh.injector.steal() {
        for _ in 0..2 {
            match sh.injector.steal() {
                Steal::Success(extra) => local.push(extra),
                _ => break,
            }
        }
        return Some(job);
    }
    sh.stealers
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != me)
        .find_map(|(_, s)| s.steal().success())
}

/// Submitter-side acquisition (no local deque): injector, then workers.
fn steal_any(sh: &Shared) -> Option<Job> {
    if let Steal::Success(job) = sh.injector.steal() {
        return Some(job);
    }
    sh.stealers.iter().find_map(|s| s.steal().success())
}

fn configured_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("SW_POOL_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(1)
    })
}

fn global() -> Option<&'static PoolCore> {
    static POOL: OnceLock<Option<PoolCore>> = OnceLock::new();
    POOL.get_or_init(|| {
        let n = configured_threads();
        (n > 1).then(|| PoolCore::new(n))
    })
    .as_ref()
}

/// True when no pool is active and consumers should run inline.
pub(crate) fn sequential() -> bool {
    global().is_none()
}

/// Splits `0..len` into contiguous chunks, evaluates `f(lo, hi)` per
/// chunk across the pool, and returns the results **in chunk order**.
///
/// This is the shim's one reduction shape: sequential fold inside each
/// chunk, ordered concatenation outside, no atomic accumulation — which
/// is what makes every derived reduction (collect, sum, for_each side
/// effects on disjoint data) bit-identical at any thread count.
pub(crate) fn run_chunked<R: Send>(
    len: usize,
    f: &(dyn Fn(usize, usize) -> R + Sync),
) -> Vec<R> {
    run_chunked_on(global(), len, f)
}

pub(crate) fn run_chunked_on<R: Send>(
    pool: Option<&PoolCore>,
    len: usize,
    f: &(dyn Fn(usize, usize) -> R + Sync),
) -> Vec<R> {
    let Some(pool) = pool else {
        return vec![f(0, len)];
    };
    if len <= 1 {
        return vec![f(0, len)];
    }
    let chunks = (pool.threads() * CHUNKS_PER_THREAD).min(len);
    let size = len.div_ceil(chunks);
    let chunks = len.div_ceil(size);
    let slots: Vec<Mutex<Option<R>>> = (0..chunks).map(|_| Mutex::new(None)).collect();
    pool.run(chunks, &|i| {
        let lo = i * size;
        let hi = ((i + 1) * size).min(len);
        *slots[i].lock().unwrap() = Some(f(lo, hi));
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("pool chunk completed"))
        .collect()
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
///
/// The shim has exactly one process-wide pool (sized by
/// `SW_POOL_THREADS`), so the requested thread count is recorded but
/// does not spawn a separate pool.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    _threads: usize,
}

impl ThreadPoolBuilder {
    /// New builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the requested size (the process-wide pool is env-sized).
    pub fn num_threads(mut self, n: usize) -> Self {
        self._threads = n;
        self
    }

    /// Builds a handle onto the process-wide pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool)
    }
}

/// Error type for [`ThreadPoolBuilder::build`] (never produced).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error (unreachable in shim)")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Handle onto the process-wide pool.
pub struct ThreadPool;

impl ThreadPool {
    /// Runs `f` "inside" the pool: `f` executes on the caller and its
    /// parallel operations use the process-wide pool. Results are
    /// thread-count-invariant (see `run_chunked`), so scoping to a
    /// differently-sized pool — what upstream `install` does — could
    /// not change any outcome, only timing.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Runs both closures — on the pool when one is active — and returns
/// both results. Panics from either closure resurface here.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    match global() {
        None => (a(), b()),
        Some(pool) => {
            let fa = Mutex::new(Some(a));
            let fb = Mutex::new(Some(b));
            let ra = Mutex::new(None);
            let rb = Mutex::new(None);
            pool.run(2, &|i| {
                if i == 0 {
                    let f = fa.lock().unwrap().take().expect("join arm ran once");
                    *ra.lock().unwrap() = Some(f());
                } else {
                    let f = fb.lock().unwrap().take().expect("join arm ran once");
                    *rb.lock().unwrap() = Some(f());
                }
            });
            (
                ra.into_inner().unwrap().expect("join arm completed"),
                rb.into_inner().unwrap().expect("join arm completed"),
            )
        }
    }
}

/// Number of pool threads (workers + participating submitter).
pub fn current_num_threads() -> usize {
    configured_threads()
}
