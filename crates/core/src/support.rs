//! Atomic butterfly-support vector.
//!
//! Peeling decrements supports of 2-hop neighbours concurrently; Lemma 2 of
//! the paper shows correctness as long as decrements are atomic and clamped
//! at the current range floor `θ(i)`.

use parutil::saturating_sub_floor;
use std::sync::atomic::{AtomicU64, Ordering};

/// Dense `u64` support values with atomic floor-clamped decrement.
#[derive(Debug)]
pub struct SupportVec {
    cells: Vec<AtomicU64>,
}

impl SupportVec {
    pub fn from_counts(counts: &[u64]) -> Self {
        SupportVec {
            cells: counts.iter().map(|&c| AtomicU64::new(c)).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    #[inline]
    pub fn get(&self, id: u32) -> u64 {
        self.cells[id as usize].load(Ordering::Relaxed)
    }

    #[inline]
    pub fn set(&self, id: u32, value: u64) {
        self.cells[id as usize].store(value, Ordering::Relaxed);
    }

    /// Atomic `support[id] = max(floor, support[id] - delta)`; returns the
    /// pre-update value.
    #[inline]
    pub fn decrement(&self, id: u32, delta: u64, floor: u64) -> u64 {
        saturating_sub_floor(&self.cells[id as usize], delta, floor)
    }

    /// Copies current values out.
    pub fn snapshot(&self) -> Vec<u64> {
        self.cells
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let s = SupportVec::from_counts(&[10, 5, 0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(0), 10);
        s.set(2, 7);
        assert_eq!(s.get(2), 7);
        assert_eq!(s.snapshot(), vec![10, 5, 7]);
    }

    #[test]
    fn decrement_with_floor() {
        let s = SupportVec::from_counts(&[10]);
        let prev = s.decrement(0, 3, 0);
        assert_eq!(prev, 10);
        assert_eq!(s.get(0), 7);
        s.decrement(0, 100, 4);
        assert_eq!(s.get(0), 4);
    }

    #[test]
    fn empty_vec() {
        let s = SupportVec::from_counts(&[]);
        assert!(s.is_empty());
        assert!(s.snapshot().is_empty());
    }
}
