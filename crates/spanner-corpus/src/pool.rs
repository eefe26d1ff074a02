//! Worker counts — and the one name the frozen benchmark still builds
//! against.
//!
//! Nothing in this crate owns a thread: every multi-document pass runs on
//! threads scoped to the call. What lives here is the rule that turns a
//! requested count into an actual one.

use std::num::NonZeroUsize;

/// A resolved worker count, under the name of the persistent pool it used
/// to be. The pool lost to the calling thread at every corpus size
/// (DESIGN.md §11 has the table) and is gone; the name is kept **only**
/// because the frozen `bench/` package constructs `WorkerPool::new(n)` and
/// hands it to `PreparedQuery::evaluate_corpus_on_pool`. It spawns nothing
/// and holds nothing but the count; the next `benchmark` PR (ROADMAP item
/// 1(i)) deletes both.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// Resolves `threads` like [`resolve_pool_threads`]; no thread starts.
    pub fn new(threads: usize) -> WorkerPool {
        WorkerPool {
            threads: resolve_pool_threads(threads),
        }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

/// Resolves a requested worker count: `0` means one worker per available
/// CPU; the result is clamped to `[1, MAX_THREADS]`. Public so every layer
/// that sizes a set of threads (the serve daemon's connection workers
/// included) resolves identically.
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

    #[test]
    fn zero_resolves_to_at_least_one_worker() {
        let pool = WorkerPool::new(0);
        assert!(pool.threads() >= 1);
        assert_eq!(WorkerPool::new(3).threads(), 3);
        assert_eq!(WorkerPool::new(usize::MAX).threads(), crate::MAX_THREADS);
    }
}
