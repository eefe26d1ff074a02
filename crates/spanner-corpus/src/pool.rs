//! A persistent worker pool for long-running corpus evaluation.
//!
//! [`CorpusEngine::evaluate_with_threads`](crate::CorpusEngine::evaluate_with_threads)
//! spawns *scoped* threads per call — the right shape for a CLI invocation
//! that evaluates one corpus and exits, but wasteful for a resident query
//! service that shards thousands of corpus requests: every request would
//! pay thread spawn and teardown. [`WorkerPool`] keeps a fixed set of
//! workers alive for the lifetime of the process;
//! [`CorpusEngine::evaluate_on_pool`](crate::CorpusEngine::evaluate_on_pool)
//! shards a corpus across it with the same corpus-order, bit-identical
//! result guarantees as the scoped path.
//!
//! Jobs are `'static` closures (the pool outlives any one call), so the
//! sharded evaluation shares the engine and the documents through `Arc`
//! instead of scoped borrows.

use std::num::NonZeroUsize;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A unit of work submitted to the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of persistent worker threads.
///
/// Workers pull jobs from a shared queue; dropping the pool closes the
/// queue and joins every worker (after it finishes its current job), so
/// the pool drains gracefully.
pub struct WorkerPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool with `threads` workers (`0` = one per available CPU,
    /// capped like the scoped path).
    pub fn new(threads: usize) -> WorkerPool {
        let threads = resolve_pool_threads(threads);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads)
            .map(|_| {
                let receiver = Arc::clone(&receiver);
                std::thread::spawn(move || loop {
                    // Hold the queue lock only to pop; run the job unlocked.
                    let job = match receiver.lock().expect("pool queue poisoned").recv() {
                        Ok(job) => job,
                        Err(_) => return, // queue closed: pool is shutting down
                    };
                    job();
                })
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            workers,
        }
    }

    /// Number of worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submits a job to the pool. The job runs on some worker, after every
    /// job submitted before it has been picked up.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.sender
            .as_ref()
            .expect("pool is live until dropped")
            .send(Box::new(job))
            .expect("workers outlive the sender");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel lets each worker finish its current job,
        // drain the remaining queue, and exit.
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WorkerPool({} threads)", self.workers.len())
    }
}

/// Resolves a requested worker count: `0` means one worker per available
/// CPU; the result is clamped to `[1, MAX_THREADS]`. Public so every
/// thread-pool layer (the serve daemon's connection workers included)
/// resolves identically.
pub fn resolve_pool_threads(requested: usize) -> usize {
    // `available_parallelism` reads cgroup files (14–90 µs): only pay for it
    // when the caller actually asked for "one per CPU".
    let threads = match requested {
        0 => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
        n => n,
    };
    threads.clamp(1, crate::MAX_THREADS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_every_job() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.threads(), 3);
        let counter = Arc::new(AtomicUsize::new(0));
        let (done, signal) = channel();
        for _ in 0..50 {
            let counter = Arc::clone(&counter);
            let done = done.clone();
            pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                let _ = done.send(());
            });
        }
        for _ in 0..50 {
            signal.recv().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(1);
            for _ in 0..20 {
                let counter = Arc::clone(&counter);
                pool.execute(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Dropping joins the worker after the queue is drained.
        }
        assert_eq!(counter.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn zero_resolves_to_at_least_one_worker() {
        let pool = WorkerPool::new(0);
        assert!(pool.threads() >= 1);
    }
}
