//! Indexed d-ary min-heap with `decrease_key`.
//!
//! Bottom-up peeling repeatedly extracts the minimum-support vertex and
//! decreases the supports of its 2-hop neighbours. The paper found a k-way
//! min-heap faster in practice than both the bucketing structure of
//! Sariyüce et al. and Fibonacci heaps (§5.1), so this is the one
//! priority queue of every sequential peel: BUP, each fine-grained
//! decomposition worker, the dynamic re-peel, and wing peeling.

/// Min-heap over dense ids `0..n` with `u64` keys and a position index for
/// O(log_d n) `decrease_key`. Ties are broken by id (deterministic peel
/// order).
#[derive(Debug, Clone)]
pub struct IndexedMinHeap {
    arity: usize,
    /// Heap slots: (key, id).
    slots: Vec<(u64, u32)>,
    /// `pos[id]` = slot index, or `ABSENT`.
    pos: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl IndexedMinHeap {
    /// Builds a heap containing every id `0..keys.len()` via O(n) heapify.
    pub fn new(arity: usize, keys: &[u64]) -> Self {
        let arity = arity.max(2);
        let slots: Vec<(u64, u32)> = keys.iter().copied().zip(0..keys.len() as u32).collect();
        let mut h = IndexedMinHeap {
            arity,
            pos: (0..keys.len() as u32).collect(),
            slots,
        };
        if !h.slots.is_empty() {
            for i in (0..h.slots.len() / arity + 1).rev() {
                h.sift_down(i);
            }
        }
        h
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Is `id` still in the heap (i.e. not yet peeled)?
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        self.pos[id as usize] != ABSENT
    }

    /// Current key of a contained id.
    pub fn key(&self, id: u32) -> Option<u64> {
        let p = self.pos[id as usize];
        (p != ABSENT).then(|| self.slots[p as usize].0)
    }

    /// Removes and returns the minimum `(id, key)`.
    pub fn pop_min(&mut self) -> Option<(u32, u64)> {
        if self.slots.is_empty() {
            return None;
        }
        let (key, id) = self.slots[0];
        self.remove_at(0);
        Some((id, key))
    }

    /// Lowers the key of `id` to `new_key`. No-op if `id` was removed or
    /// `new_key` is not lower than the current key.
    pub fn decrease_key(&mut self, id: u32, new_key: u64) {
        let p = self.pos[id as usize];
        if p == ABSENT {
            return;
        }
        let p = p as usize;
        if new_key >= self.slots[p].0 {
            return;
        }
        self.slots[p].0 = new_key;
        self.sift_up(p);
    }

    fn remove_at(&mut self, slot: usize) {
        let (_, id) = self.slots[slot];
        self.pos[id as usize] = ABSENT;
        let last = self.slots.len() - 1;
        if slot != last {
            self.slots.swap(slot, last);
            self.slots.pop();
            let moved = self.slots[slot].1;
            self.pos[moved as usize] = slot as u32;
            // The displaced element may need to move either way.
            self.sift_down(slot);
            self.sift_up(self.pos[moved as usize] as usize);
        } else {
            self.slots.pop();
        }
    }

    #[inline]
    fn less(&self, a: usize, b: usize) -> bool {
        self.slots[a] < self.slots[b] // (key, id) lexicographic: id tie-break
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / self.arity;
            if self.less(i, parent) {
                self.swap_slots(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let first_child = i * self.arity + 1;
            if first_child >= self.slots.len() {
                break;
            }
            let last_child = (first_child + self.arity).min(self.slots.len());
            let mut best = first_child;
            for c in first_child + 1..last_child {
                if self.less(c, best) {
                    best = c;
                }
            }
            if self.less(best, i) {
                self.swap_slots(i, best);
                i = best;
            } else {
                break;
            }
        }
    }

    fn swap_slots(&mut self, a: usize, b: usize) {
        self.slots.swap(a, b);
        self.pos[self.slots[a].1 as usize] = a as u32;
        self.pos[self.slots[b].1 as usize] = b as u32;
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        for (slot, &(_, id)) in self.slots.iter().enumerate() {
            assert_eq!(self.pos[id as usize] as usize, slot);
        }
        for i in 1..self.slots.len() {
            let parent = (i - 1) / self.arity;
            assert!(
                !self.less(i, parent),
                "heap violated at {i} (parent {parent})"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_sorted_order() {
        for arity in [2, 3, 4, 8] {
            let keys = vec![5, 3, 8, 1, 9, 2, 2];
            let mut h = IndexedMinHeap::new(arity, &keys);
            h.check_invariants();
            let mut popped = Vec::new();
            while let Some((_, k)) = h.pop_min() {
                popped.push(k);
            }
            assert_eq!(popped, vec![1, 2, 2, 3, 5, 8, 9], "arity {arity}");
        }
    }

    #[test]
    fn tie_break_is_by_id() {
        let mut h = IndexedMinHeap::new(4, &[7, 7, 7]);
        assert_eq!(h.pop_min(), Some((0, 7)));
        assert_eq!(h.pop_min(), Some((1, 7)));
        assert_eq!(h.pop_min(), Some((2, 7)));
        assert_eq!(h.pop_min(), None);
    }

    #[test]
    fn decrease_key_reorders() {
        let mut h = IndexedMinHeap::new(4, &[10, 20, 30]);
        h.decrease_key(2, 5);
        h.check_invariants();
        assert_eq!(h.pop_min(), Some((2, 5)));
        assert_eq!(h.key(1), Some(20));
        // Increase attempts are ignored.
        h.decrease_key(1, 100);
        assert_eq!(h.key(1), Some(20));
        // Decreasing a removed id is a no-op.
        h.decrease_key(2, 1);
        assert!(!h.contains(2));
    }

    #[test]
    fn contains_tracks_membership() {
        let mut h = IndexedMinHeap::new(2, &[4, 2]);
        assert!(h.contains(0) && h.contains(1));
        h.pop_min();
        assert!(h.contains(0) && !h.contains(1));
        assert_eq!(h.len(), 1);
        assert!(!h.is_empty());
        h.pop_min();
        assert!(h.is_empty());
    }

    #[test]
    fn empty_heap() {
        let mut h = IndexedMinHeap::new(4, &[]);
        assert!(h.is_empty());
        assert_eq!(h.pop_min(), None);
    }

    proptest! {
        #[test]
        fn heapsort_matches_std_sort(
            keys in proptest::collection::vec(0u64..1000, 0..200),
            arity in 2usize..8,
            decreases in proptest::collection::vec((0usize..200, 0u64..1000), 0..50),
        ) {
            let mut h = IndexedMinHeap::new(arity, &keys);
            let mut reference = keys.clone();
            for (idx, nk) in decreases {
                if idx < keys.len() {
                    if nk < reference[idx] {
                        reference[idx] = nk;
                    }
                    h.decrease_key(idx as u32, nk);
                }
            }
            h.check_invariants();
            let mut popped = Vec::new();
            while let Some((_, k)) = h.pop_min() {
                popped.push(k);
            }
            reference.sort_unstable();
            prop_assert_eq!(popped, reference);
        }
    }
}
