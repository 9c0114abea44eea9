//! Atomic helpers for parallel peeling.

use std::sync::atomic::{AtomicU64, Ordering};

/// Atomically performs `x = max(floor, x.saturating_sub(delta))` and returns
/// the value observed *before* the update.
///
/// This is the support-decrement primitive from the paper (Algorithm 2 line
/// 13 and Lemma 2): when a vertex `u'` loses `delta = ⋈(u,u')` shared
/// butterflies because `u` was peeled, its support must not drop below the
/// current range floor `θ(i)` — vertices whose support reaches the floor are
/// about to be peeled into the current subset anyway, and clamping keeps the
/// subset-membership invariant intact under concurrent updates.
#[inline]
pub fn saturating_sub_floor(cell: &AtomicU64, delta: u64, floor: u64) -> u64 {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        if cur <= floor {
            // Already at/below the floor; nothing to do.
            return cur;
        }
        let next = cur.saturating_sub(delta).max(floor);
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(prev) => return prev,
            Err(observed) => cur = observed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn sub_above_floor() {
        let c = AtomicU64::new(10);
        let prev = saturating_sub_floor(&c, 3, 2);
        assert_eq!(prev, 10);
        assert_eq!(c.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn sub_clamps_to_floor() {
        let c = AtomicU64::new(10);
        saturating_sub_floor(&c, 100, 4);
        assert_eq!(c.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn sub_lands_exactly_on_floor() {
        // Lemma 2 boundary: a decrement whose saturated result equals the
        // floor must store exactly the floor, and every later decrement is
        // then a no-op that still reports the floor as the observed value.
        let c = AtomicU64::new(7);
        let prev = saturating_sub_floor(&c, 3, 4);
        assert_eq!(prev, 7);
        assert_eq!(c.load(Ordering::Relaxed), 4);
        let prev = saturating_sub_floor(&c, 3, 4);
        assert_eq!(prev, 4);
        assert_eq!(c.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn sub_at_floor_is_noop() {
        let c = AtomicU64::new(4);
        let prev = saturating_sub_floor(&c, 1, 4);
        assert_eq!(prev, 4);
        assert_eq!(c.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn sub_below_floor_is_noop() {
        // Can happen when the floor rises between ranges.
        let c = AtomicU64::new(3);
        saturating_sub_floor(&c, 1, 4);
        assert_eq!(c.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn sub_saturates_at_zero_floor() {
        let c = AtomicU64::new(2);
        saturating_sub_floor(&c, 100, 0);
        assert_eq!(c.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn concurrent_decrements_sum_exactly() {
        use std::sync::Arc;
        let c = Arc::new(AtomicU64::new(1_000_000));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        saturating_sub_floor(&c, 7, 0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.load(Ordering::Relaxed), 1_000_000 - 4 * 1000 * 7);
    }
}
