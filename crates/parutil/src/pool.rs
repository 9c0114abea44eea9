//! Reusable scratch buffers for parallel peeling.
//!
//! Every call to the `update()` routine (Algorithm 2) needs a dense
//! wedge-aggregation array sized `|U|` plus a touched-vertex list. Allocating
//! these per peeled vertex would dominate runtime; the paper gives each
//! OpenMP thread a `θ(|W|)` private array. Rayon tasks are not pinned to
//! threads — under the work-stealing shim a task can even migrate its
//! *siblings* to whichever worker steals them — so instead we keep a pool of
//! scratch buffers that tasks check out and return; the pool grows to at
//! most the number of concurrently running tasks (≤ pool thread count).
//! A task checks a buffer out once, through `for_each_init` or a `fold`
//! identity, and keeps it for all of its items: one lock round trip per
//! task instead of one per vertex.

use parking_lot::Mutex;

/// A pool of reusable `T` buffers. `acquire` pops a cached buffer or builds
/// a fresh one; the guard returns it on drop.
pub struct ScratchPool<T> {
    free: Mutex<Vec<T>>,
    make: Box<dyn Fn() -> T + Send + Sync>,
}

impl<T> ScratchPool<T> {
    pub fn new<F>(make: F) -> Self
    where
        F: Fn() -> T + Send + Sync + 'static,
    {
        ScratchPool {
            free: Mutex::new(Vec::new()),
            make: Box::new(make),
        }
    }

    /// Checks out a buffer. Dropping the guard returns it to the pool.
    pub fn acquire(&self) -> ScratchGuard<'_, T> {
        let item = self.free.lock().pop().unwrap_or_else(|| (self.make)());
        ScratchGuard {
            pool: self,
            item: Some(item),
        }
    }

    /// Number of buffers currently parked in the pool (for tests/metrics).
    pub fn idle_len(&self) -> usize {
        self.free.lock().len()
    }
}

pub struct ScratchGuard<'a, T> {
    pool: &'a ScratchPool<T>,
    item: Option<T>,
}

impl<T> std::ops::Deref for ScratchGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.item.as_ref().expect("scratch present until drop")
    }
}

impl<T> std::ops::DerefMut for ScratchGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.item.as_mut().expect("scratch present until drop")
    }
}

impl<T> Drop for ScratchGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(item) = self.item.take() {
            self.pool.free.lock().push(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn acquire_creates_then_reuses() {
        let created = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&created);
        let pool = ScratchPool::new(move || {
            c.fetch_add(1, Ordering::Relaxed);
            vec![0u32; 8]
        });
        {
            let mut a = pool.acquire();
            a[0] = 7;
        } // returned
        {
            let b = pool.acquire();
            // Reused buffer keeps stale contents; callers must reset.
            assert_eq!(b[0], 7);
        }
        assert_eq!(created.load(Ordering::Relaxed), 1);
        assert_eq!(pool.idle_len(), 1);
    }

    #[test]
    fn concurrent_acquires_get_distinct_buffers() {
        let pool = Arc::new(ScratchPool::new(|| vec![0u64; 4]));
        let g1 = pool.acquire();
        let g2 = pool.acquire();
        // Two live guards -> two distinct buffers.
        assert_eq!(pool.idle_len(), 0);
        drop(g1);
        drop(g2);
        assert_eq!(pool.idle_len(), 2);
    }

    #[test]
    fn usable_across_rayon_tasks() {
        let pool = ScratchPool::new(|| vec![0u8; 16]);
        rayon::scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    let mut b = pool.acquire();
                    b[0] = b[0].wrapping_add(1);
                });
            }
        });
        assert!(pool.idle_len() >= 1);
    }
}
