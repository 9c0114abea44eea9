//! Thread-pool sizing helpers.
//!
//! The paper's scalability study (Figures 10–11) sweeps 1–36 threads. Rayon's
//! global pool is fixed at startup, so the harness runs each configuration
//! inside a locally built pool of the exact requested size. (Under the
//! vendored shim a `ThreadPool` is a parallelism *budget* over one shared
//! work-stealing worker set — per-worker deques, idle workers steal, see
//! `vendor/rayon/src/pool.rs` — so building pools per configuration is
//! cheap and the OS threads are reused across configurations. The budget
//! caps how many jobs a terminal forks, which is what bounds its
//! concurrency; `rayon::scheduler_stats()` exposes the steal counters the
//! CI thread-scaling gate asserts on.)

/// Runs `f` inside a freshly built rayon pool with exactly `threads` workers.
/// All rayon parallel iterators invoked (transitively) from `f` execute on
/// that pool.
pub fn with_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .expect("failed to build rayon pool");
    pool.install(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn with_pool_controls_thread_count() {
        let seen = with_pool(2, rayon::current_num_threads);
        assert_eq!(seen, 2);
        let seen = with_pool(1, rayon::current_num_threads);
        assert_eq!(seen, 1);
    }

    #[test]
    fn with_pool_runs_parallel_work() {
        let sum: u64 = with_pool(2, || (0u64..1000).into_par_iter().sum());
        assert_eq!(sum, 499_500);
    }
}
