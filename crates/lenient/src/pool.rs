//! A small fixed-size worker pool.
//!
//! The paper's evaluation mechanism extracts executable operations from the
//! merged stream "as they become available, rather than in the implied
//! sequence". The pipelined engine realizes that by handing transaction
//! steps to this pool; workers block only inside lenient waits, i.e. on real
//! data dependencies.
//!
//! Jobs are batch-granular, not transaction-granular: since the engine
//! coalesces consecutive same-relation writes, one job here may apply a
//! whole run of transactions against one input cell. The queue is strictly
//! FIFO, which the engine relies on for deadlock freedom — it enqueues jobs
//! in version-capture order, so the oldest queued job never waits on a cell
//! produced by a younger one.
//!
//! One kind of job breaks that order on purpose: a *deferred* job
//! ([`spawn_deferred`]) — the durable store's shared flush — is queued
//! behind the batch jobs already waiting, so they can join it, although a
//! batch queued ahead of it may wait on a cell it fills. The thread that
//! deferred it therefore runs it, at the latest, when it is about to block
//! in [`Lenient::wait`](crate::Lenient::wait): a worker either reaches the
//! job in the queue or blocks, and both run it, so every cell a deferred
//! job fills is filled by a job that is running or will run.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{self, Sender};
use parking_lot::{Condvar, Mutex};

/// A boxed unit of work, as a worker receives it.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// A message to a worker: run a job, or exit (the shutdown pill `Drop`
/// sends, one per worker — workers hold sender clones in their thread-local
/// [`PoolHandle`], so closing the channel alone would never terminate them).
enum Msg {
    Run(Job),
    Shutdown,
}

/// A lightweight handle a worker thread keeps to its own pool: enough to
/// spawn sibling jobs ([`spawn_on_current_pool`]) without a back-reference
/// to the [`WorkerPool`] itself (which would make drop order circular).
#[derive(Clone)]
struct PoolHandle {
    sender: Sender<Msg>,
    pending: Arc<Pending>,
}

impl PoolHandle {
    /// Queues `job` at the pool's tail; `false` once the pool is gone.
    fn spawn(&self, job: Job) -> bool {
        self.pending.incr();
        if self.sender.send(Msg::Run(job)).is_err() {
            self.pending.decr();
            return false;
        }
        true
    }
}

/// A job [`spawn_deferred`] queued: taken and run once, by its turn in
/// the queue or by its spawning thread about to block, whichever is first.
type Deferred = Arc<Mutex<Option<Job>>>;

thread_local! {
    /// Set for the lifetime of each pool worker thread;
    /// [`spawn_on_current_pool`] uses it to discover the pool it is
    /// running on.
    static CURRENT_POOL: RefCell<Option<PoolHandle>> = const { RefCell::new(None) };

    /// The deferred jobs this worker queued and has not seen run yet.
    static DEFERRED: RefCell<Vec<Deferred>> = const { RefCell::new(Vec::new()) };
}

struct Pending {
    count: AtomicUsize,
    /// Threads blocked in [`wait_zero`](Self::wait_zero); registered under
    /// `lock`, so a `decr` that drops the count to zero cannot miss one.
    /// When nobody waits — every job completion in a run with no barrier
    /// in sight — `decr` is a single uncontended atomic and never touches
    /// the mutex, keeping idle-pool bookkeeping off the read fast-path.
    waiters: AtomicUsize,
    lock: Mutex<()>,
    cond: Condvar,
    /// Workers between jobs: waiting for one, or about to take one.
    idle: AtomicUsize,
}

impl Pending {
    fn incr(&self) {
        self.count.fetch_add(1, Ordering::SeqCst);
    }

    fn decr(&self) {
        if self.count.fetch_sub(1, Ordering::SeqCst) == 1 && self.waiters.load(Ordering::SeqCst) > 0
        {
            let _guard = self.lock.lock();
            self.cond.notify_all();
        }
    }

    fn wait_zero(&self) {
        let mut guard = self.lock.lock();
        self.waiters.fetch_add(1, Ordering::SeqCst);
        while self.count.load(Ordering::SeqCst) != 0 {
            self.cond.wait(&mut guard);
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A fixed pool of worker threads executing submitted closures.
///
/// Dropping the pool waits for all queued work to finish and joins the
/// workers.
///
/// # Example
///
/// ```
/// use fundb_lenient::WorkerPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// let pool = WorkerPool::new(4);
/// let hits = Arc::new(AtomicUsize::new(0));
/// for _ in 0..100 {
///     let hits = hits.clone();
///     pool.spawn(move || {
///         hits.fetch_add(1, Ordering::SeqCst);
///     });
/// }
/// pool.wait_idle();
/// assert_eq!(hits.load(Ordering::SeqCst), 100);
/// ```
pub struct WorkerPool {
    sender: Option<Sender<Msg>>,
    workers: Vec<JoinHandle<()>>,
    pending: Arc<Pending>,
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .field("pending", &self.pending.count.load(Ordering::SeqCst))
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `workers` threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero — a zero-width pool would silently
    /// deadlock every caller of [`wait_idle`](Self::wait_idle).
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "worker pool requires at least one worker");
        let (tx, rx) = channel::unbounded::<Msg>();
        let pending = Arc::new(Pending {
            count: AtomicUsize::new(0),
            waiters: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cond: Condvar::new(),
            idle: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|_| {
                let rx = rx.clone();
                let pending = Arc::clone(&pending);
                let handle = PoolHandle {
                    sender: tx.clone(),
                    pending: Arc::clone(&pending),
                };
                std::thread::spawn(move || {
                    CURRENT_POOL.with(|c| *c.borrow_mut() = Some(handle));
                    loop {
                        pending.idle.fetch_add(1, Ordering::SeqCst);
                        let msg = rx.recv();
                        pending.idle.fetch_sub(1, Ordering::SeqCst);
                        let Ok(Msg::Run(job)) = msg else {
                            break;
                        };
                        // A panicking job must not kill the worker (or the
                        // pool would silently shrink) nor leak a pending
                        // count (or wait_idle would hang).
                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                        pending.decr();
                        if result.is_err() {
                            // Swallow the panic; the job's own observers see
                            // its effects (e.g. an unfilled lenient cell).
                        }
                    }
                })
            })
            .collect();
        WorkerPool {
            sender: Some(tx),
            workers: handles,
            pending,
        }
    }

    /// Queues `job` for execution on some worker.
    pub fn spawn<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.pending.incr();
        self.sender
            .as_ref()
            .expect("worker pool sender alive until drop")
            .send(Msg::Run(Box::new(job)))
            .expect("worker threads alive until drop");
    }

    /// A handle that queues jobs on this pool from any thread.
    pub fn spawner(&self) -> Spawner {
        Spawner(PoolHandle {
            sender: self
                .sender
                .clone()
                .expect("worker pool sender alive until drop"),
            pending: Arc::clone(&self.pending),
        })
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Jobs submitted but not yet completed.
    pub fn pending_jobs(&self) -> usize {
        self.pending.count.load(Ordering::SeqCst)
    }

    /// Blocks until every submitted job has completed.
    ///
    /// Note: jobs submitted concurrently with this call may or may not be
    /// awaited; quiesce producers first for a strict barrier.
    pub fn wait_idle(&self) {
        self.pending.wait_zero();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Drain first: a running job may queue more (a deferred flush, the
        // chained batch its flush hands back), and those must run too.
        self.pending.wait_zero();
        // Then one shutdown pill per worker. A closed channel would not
        // do: workers hold sender clones in their thread-local handles.
        if let Some(sender) = self.sender.take() {
            for _ in &self.workers {
                let _ = sender.send(Msg::Shutdown);
            }
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Queues `job` at the tail of the pool the *calling worker thread*
/// belongs to. Returns `false` (and does not run the job) when the caller
/// is not a pool worker.
///
/// The engine's chain drain uses this to yield: after claiming a long run
/// of chained batches, it re-enqueues the rest of the drain behind
/// whatever other slots have queued, so one relation's write storm cannot
/// monopolize a narrow pool. The continuation waits on nothing before
/// probing (it claims only batches whose inputs are filled), so it is
/// always safe to place anywhere in the FIFO queue.
pub fn spawn_on_current_pool<F: FnOnce() + Send + 'static>(job: F) -> bool {
    CURRENT_POOL
        .with(|c| c.borrow().clone())
        .is_some_and(|handle| handle.spawn(Box::new(job)))
}

/// Runs `job` behind the jobs already queued on the calling worker's
/// pool: queues it at the tail, like [`spawn_on_current_pool`], and also
/// makes it this thread's obligation — if the thread is about to block in
/// [`Lenient::wait`](crate::Lenient::wait) before the job's turn comes, it
/// runs the job first. Either way the job runs once. With nothing queued,
/// or a worker idle to take what is, there is nothing to wait behind, and
/// the job runs here at once.
/// Returns `false` (and drops the job) when the caller is not a pool
/// worker.
///
/// This is how a job that fills cells can wait for the jobs queued ahead
/// of it — which may join its work — without breaking the FIFO argument:
/// a job ahead of it that waits on one of those cells runs on a thread
/// that either is the deferring one, and runs it before blocking, or
/// leaves that thread free to reach it.
pub fn spawn_deferred<F: FnOnce() + Send + 'static>(job: F) -> bool {
    let Some(handle) = CURRENT_POOL.with(|c| c.borrow().clone()) else {
        return false;
    };
    if handle.sender.is_empty() || handle.pending.idle.load(Ordering::SeqCst) > 0 {
        job();
        return true;
    }
    let deferred: Deferred = Arc::new(Mutex::new(Some(Box::new(job))));
    let queued = Arc::clone(&deferred);
    let run = move || {
        let job = queued.lock().take();
        if let Some(job) = job {
            job();
        }
    };
    if !handle.spawn(Box::new(run)) {
        return false;
    }
    DEFERRED.with(|d| {
        let mut d = d.borrow_mut();
        d.retain(|job| job.lock().is_some());
        d.push(deferred);
    });
    true
}

/// Runs the deferred jobs this thread still owes; called by a waiter just
/// before it blocks.
pub(crate) fn run_deferred() {
    let owed = DEFERRED.with(|d| std::mem::take(&mut *d.borrow_mut()));
    for deferred in owed {
        let job = deferred.lock().take();
        if let Some(job) = job {
            job();
        }
    }
}

/// A handle that queues jobs on one pool from any thread: what work
/// finishing off the pool (a flush run by a submitting thread) uses to
/// hand follow-up work back to it.
#[derive(Clone)]
pub struct Spawner(PoolHandle);

impl fmt::Debug for Spawner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Spawner")
    }
}

impl Spawner {
    /// Queues `job` at the pool's tail; `false` (and the job is dropped)
    /// once the pool has shut down.
    pub fn spawn<F: FnOnce() + Send + 'static>(&self, job: F) -> bool {
        self.0.spawn(Box::new(job))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn runs_all_jobs() {
        let pool = WorkerPool::new(3);
        let n = Arc::new(AtomicUsize::new(0));
        for _ in 0..500 {
            let n = n.clone();
            pool.spawn(move || {
                n.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        assert_eq!(n.load(Ordering::SeqCst), 500);
        assert_eq!(pool.pending_jobs(), 0);
    }

    #[test]
    fn drop_drains_queue() {
        let n = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..100 {
                let n = n.clone();
                pool.spawn(move || {
                    n.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        assert_eq!(n.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn jobs_run_concurrently() {
        use crate::Lenient;
        let pool = WorkerPool::new(2);
        // Two jobs that can only finish if they run at the same time.
        let a: Lenient<u8> = Lenient::new();
        let b: Lenient<u8> = Lenient::new();
        let (a1, b1) = (a.clone(), b.clone());
        pool.spawn(move || {
            a1.fill(1).unwrap();
            b1.wait();
        });
        let (a2, b2) = (a, b);
        pool.spawn(move || {
            a2.wait();
            b2.fill(1).unwrap();
        });
        pool.wait_idle();
    }

    #[test]
    fn panicking_job_does_not_poison_the_pool() {
        let pool = WorkerPool::new(2);
        let n = Arc::new(AtomicUsize::new(0));
        for i in 0..50 {
            let n = n.clone();
            pool.spawn(move || {
                if i % 10 == 0 {
                    panic!("injected failure {i}");
                }
                n.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        assert_eq!(n.load(Ordering::SeqCst), 45);
        // Workers survived: the pool still runs new jobs.
        let n2 = n.clone();
        pool.spawn(move || {
            n2.fetch_add(1, Ordering::SeqCst);
        });
        pool.wait_idle();
        assert_eq!(n.load(Ordering::SeqCst), 46);
    }

    #[test]
    fn drop_runs_the_jobs_running_jobs_queue() {
        let n = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(1);
            let outer = n.clone();
            pool.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                let inner = outer.clone();
                assert!(spawn_on_current_pool(move || {
                    inner.fetch_add(1, Ordering::SeqCst);
                }));
                outer.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(n.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn a_deferred_job_runs_before_its_spawner_blocks_on_what_it_fills() {
        use crate::Lenient;
        use std::time::Duration;
        // One worker; the queue is [gate, A, B]. A defers D, which fills
        // `x`, behind B, and B waits on `x`: FIFO alone would stall B
        // forever, but the worker runs D before it blocks in B.
        let pool = WorkerPool::new(1);
        let (gate, x, done) = (Lenient::new(), Lenient::new(), Lenient::new());
        let g = gate.clone();
        pool.spawn(move || {
            g.wait();
        });
        let filled = x.clone();
        pool.spawn(move || {
            assert!(spawn_deferred(move || {
                filled.fill(7u8).unwrap();
            }));
        });
        let (x2, d) = (x.clone(), done.clone());
        pool.spawn(move || {
            d.fill(*x2.wait()).unwrap();
        });
        gate.fill(()).unwrap();
        if done.wait_timeout(Duration::from_secs(10)).is_none() {
            // The stalled worker would hang the pool's drop as well.
            std::mem::forget(pool);
            panic!("B waited on the deferred job behind it");
        }
        assert_eq!(done.try_get(), Some(&7));
    }

    #[test]
    fn a_deferred_job_runs_once_and_only_on_a_worker() {
        use crate::Lenient;
        use std::time::Duration;
        assert!(!spawn_deferred(|| unreachable!("the caller is no worker")));
        let pool = WorkerPool::new(1);
        let runs = Arc::new(AtomicUsize::new(0));
        let counted = runs.clone();
        pool.spawn(move || {
            // Nothing queued: nothing to wait behind, so it runs at once.
            let n = counted.clone();
            assert!(spawn_deferred(move || {
                n.fetch_add(1, Ordering::SeqCst);
            }));
            assert_eq!(counted.load(Ordering::SeqCst), 1);
            // Behind a queued job it waits — until this thread is about
            // to block, and its queued turn later finds nothing to run.
            assert!(spawn_on_current_pool(|| {}));
            let n = counted.clone();
            assert!(spawn_deferred(move || {
                n.fetch_add(1, Ordering::SeqCst);
            }));
            assert_eq!(counted.load(Ordering::SeqCst), 1);
            let never: Lenient<()> = Lenient::new();
            assert!(never.wait_timeout(Duration::from_millis(1)).is_none());
            assert_eq!(counted.load(Ordering::SeqCst), 2);
        });
        pool.wait_idle();
        assert_eq!(runs.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn a_spawner_queues_from_any_thread() {
        let pool = WorkerPool::new(1);
        let spawner = pool.spawner();
        let n = Arc::new(AtomicUsize::new(0));
        let counted = n.clone();
        std::thread::spawn(move || {
            assert!(spawner.spawn(move || {
                counted.fetch_add(1, Ordering::SeqCst);
            }));
        })
        .join()
        .unwrap();
        pool.wait_idle();
        assert_eq!(n.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = WorkerPool::new(0);
    }

    #[test]
    fn worker_count_reported() {
        let pool = WorkerPool::new(5);
        assert_eq!(pool.worker_count(), 5);
    }
}
